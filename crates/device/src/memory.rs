//! Discrete device memory and the present table.
//!
//! The present table is the core data structure behind every OpenACC data
//! clause: it maps a host symbol to the device buffer holding its copy,
//! with a reference count so nested data regions (`data` inside `data`,
//! `present` lookups, `present_or_*` fallbacks) behave per the spec: the
//! outermost region owns the allocation and performs the deferred copyout.

use crate::value::{ArrayData, Value, ValueError};
use acc_ast::ScalarType;
use acc_spec::FxHashMap;
use std::fmt;

/// Opaque identifier of a device buffer (the simulated device address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

/// A device-side allocation.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    /// Storage.
    pub data: ArrayData,
    /// Logical dimensions (empty = scalar stored as 1-element array).
    pub dims: Vec<usize>,
}

impl DeviceBuffer {
    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one element. With the buffer already in hand, an engine reads
    /// `dims` and the element through one lookup.
    #[inline]
    pub fn read(&self, index: usize) -> Result<Value, DeviceError> {
        match self.data.get(index) {
            Some(v) => Ok(v),
            None => Err(self.out_of_bounds("read", index)),
        }
    }

    /// Write one element (converted to the buffer's element type).
    #[inline]
    pub fn write(&mut self, index: usize, v: Value) -> Result<(), DeviceError> {
        if !self.data.set(index, v)? {
            return Err(self.out_of_bounds("write", index));
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn out_of_bounds(&self, access: &str, index: usize) -> DeviceError {
        DeviceError(format!(
            "device {access} out of bounds: {index} >= {}",
            self.len()
        ))
    }
}

/// Errors from device memory operations — these model runtime crashes
/// (bad device address, double free, out-of-bounds DMA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceError(pub String);

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device error: {}", self.0)
    }
}

impl std::error::Error for DeviceError {}

impl From<ValueError> for DeviceError {
    fn from(e: ValueError) -> Self {
        DeviceError(e.0)
    }
}

/// The error of a lookup that finds no live buffer.
#[cold]
#[inline(never)]
fn invalid_address(id: BufferId) -> DeviceError {
    DeviceError(format!("invalid device address {id:?}"))
}

/// The device's memory: an allocator of typed buffers.
///
/// Buffers live in a slab indexed by the (sequential, 1-based) buffer id:
/// element access is a plain bounds-checked vector index, which matters
/// because the interpreter hot loop performs one lookup per simulated
/// device load/store. Freed slots stay behind as `None` so stale ids keep
/// reporting "invalid device address" instead of aliasing a later
/// allocation.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    /// Slot `i` holds the buffer with id `i + 1` (id 0 is never issued).
    buffers: Vec<Option<DeviceBuffer>>,
    /// Total bytes currently allocated.
    pub allocated_bytes: usize,
}

impl DeviceMemory {
    /// Fresh empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a buffer filled with the deterministic garbage pattern
    /// (device memory is uninitialized until a transfer or kernel writes it).
    pub fn alloc(&mut self, ty: ScalarType, dims: Vec<usize>) -> BufferId {
        let len: usize = dims.iter().product::<usize>().max(1);
        // The garbage seed tracks the allocation ordinal, so the fill
        // pattern for the n-th allocation is identical to what the old
        // counter-based allocator produced.
        let id = BufferId(self.buffers.len() as u64 + 1);
        let data = ArrayData::garbage(ty, len, id.0);
        self.allocated_bytes += data.size_bytes();
        if acc_obs::active() {
            acc_obs::instant(
                "mem",
                "alloc",
                vec![acc_obs::i("bytes", data.size_bytes() as i64)],
            );
        }
        self.buffers.push(Some(DeviceBuffer { data, dims }));
        id
    }

    /// The slab slot for an id: ids are 1-based, so 0 (and any id past the
    /// high-water mark) maps to no slot.
    #[inline]
    fn slot(&self, id: BufferId) -> usize {
        (id.0 as usize).wrapping_sub(1)
    }

    /// Free a buffer. Freeing an unknown id is a device error (double free).
    pub fn free(&mut self, id: BufferId) -> Result<(), DeviceError> {
        let slot = self.slot(id);
        match self.buffers.get_mut(slot).and_then(Option::take) {
            Some(b) => {
                self.allocated_bytes -= b.data.size_bytes();
                Ok(())
            }
            None => Err(DeviceError(format!(
                "free of invalid device address {id:?}"
            ))),
        }
    }

    /// Borrow a buffer.
    #[inline]
    pub fn get(&self, id: BufferId) -> Result<&DeviceBuffer, DeviceError> {
        self.buffers
            .get(self.slot(id))
            .and_then(Option::as_ref)
            .ok_or_else(|| invalid_address(id))
    }

    /// Mutably borrow a buffer.
    #[inline]
    pub fn get_mut(&mut self, id: BufferId) -> Result<&mut DeviceBuffer, DeviceError> {
        let slot = self.slot(id);
        self.buffers
            .get_mut(slot)
            .and_then(Option::as_mut)
            .ok_or_else(|| invalid_address(id))
    }

    /// Read one element.
    #[inline]
    pub fn read(&self, id: BufferId, index: usize) -> Result<Value, DeviceError> {
        self.get(id)?.read(index)
    }

    /// Write one element (converted to the buffer's element type).
    #[inline]
    pub fn write(&mut self, id: BufferId, index: usize, v: Value) -> Result<(), DeviceError> {
        self.get_mut(id)?.write(index, v)
    }

    /// Host→device DMA of a section. Returns bytes moved.
    pub fn upload(
        &mut self,
        id: BufferId,
        host: &ArrayData,
        start: usize,
        len: usize,
    ) -> Result<usize, DeviceError> {
        let b = self.get_mut(id)?;
        b.data.copy_section_from(host, start, len)?;
        let bytes = len * host.elem_type().size_bytes();
        if acc_obs::active() {
            acc_obs::instant("memcpy", "h2d", vec![acc_obs::i("bytes", bytes as i64)]);
        }
        Ok(bytes)
    }

    /// Device→host DMA of a section. Returns bytes moved.
    pub fn download(
        &self,
        id: BufferId,
        host: &mut ArrayData,
        start: usize,
        len: usize,
    ) -> Result<usize, DeviceError> {
        let b = self.get(id)?;
        host.copy_section_from(&b.data, start, len)?;
        let bytes = len * b.data.elem_type().size_bytes();
        if acc_obs::active() {
            acc_obs::instant("memcpy", "d2h", vec![acc_obs::i("bytes", bytes as i64)]);
        }
        Ok(bytes)
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.buffers.iter().filter(|b| b.is_some()).count()
    }
}

/// What should happen to a mapped symbol when its owning region exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitAction {
    /// Copy the device data back to the host (from `copy`, `copyout`).
    CopyOut,
    /// Just free (from `copyin`, `create`, `present`).
    Release,
}

/// A present-table entry: a host symbol currently mapped on the device.
#[derive(Debug, Clone)]
pub struct PresentEntry {
    /// The device buffer.
    pub buffer: BufferId,
    /// Mapped section start (elements).
    pub start: usize,
    /// Mapped section length (elements).
    pub len: usize,
    /// Action at region exit of the owning (outermost) region.
    pub exit_action: ExitAction,
    /// Structured-region nesting count.
    pub refcount: u32,
}

/// The present table: host symbol → device mapping.
///
/// `enter` increments the refcount when the symbol is already mapped
/// (`present_or_*` semantics); `exit` decrements and reports when the
/// mapping ends so the caller can copy out and free.
#[derive(Debug, Default)]
pub struct PresentTable {
    entries: FxHashMap<String, PresentEntry>,
}

impl PresentTable {
    /// Fresh empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is the symbol currently present?
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Look up a mapping.
    pub fn get(&self, name: &str) -> Option<&PresentEntry> {
        self.entries.get(name)
    }

    /// Record a fresh mapping (refcount 1). Overwrites any stale entry.
    pub fn insert(&mut self, name: &str, entry: PresentEntry) {
        self.entries.insert(name.to_string(), entry);
    }

    /// Re-enter an existing mapping (nested region); returns false when the
    /// symbol is not mapped.
    pub fn reenter(&mut self, name: &str) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.refcount += 1;
                true
            }
            None => false,
        }
    }

    /// Leave a mapping. Returns the entry when this was the last reference
    /// (the caller must then perform the exit action and free the buffer).
    pub fn exit(&mut self, name: &str) -> Result<Option<PresentEntry>, DeviceError> {
        match self.entries.get_mut(name) {
            Some(e) if e.refcount > 1 => {
                e.refcount -= 1;
                Ok(None)
            }
            Some(_) => Ok(self.entries.remove(name)),
            None => Err(DeviceError(format!(
                "region exit for `{name}` which is not present on the device"
            ))),
        }
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no symbol is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Names of all mapped symbols (sorted, for deterministic iteration).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.entries.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_garbage_filled() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::Int, vec![4]);
        let v = m.read(id, 0).unwrap().as_int().unwrap();
        assert!(v < -1000);
    }

    #[test]
    fn upload_download_round_trip() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::Float, vec![8]);
        let host = ArrayData::F32((0..8).map(|i| i as f32).collect());
        let up = m.upload(id, &host, 0, 8).unwrap();
        assert_eq!(up, 32);
        let mut back = ArrayData::zeros(ScalarType::Float, 8);
        let down = m.download(id, &mut back, 0, 8).unwrap();
        assert_eq!(down, 32);
        assert_eq!(back, host);
    }

    #[test]
    fn partial_section_transfer() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::Int, vec![10]);
        let host = ArrayData::Int((0..10).collect());
        m.upload(id, &host, 3, 4).unwrap();
        assert_eq!(m.read(id, 3).unwrap(), Value::Int(3));
        assert_eq!(m.read(id, 6).unwrap(), Value::Int(6));
        // Outside the section stays garbage.
        assert!(m.read(id, 0).unwrap().as_int().unwrap() < -1000);
    }

    #[test]
    fn free_and_double_free() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::Double, vec![2]);
        assert_eq!(m.live_buffers(), 1);
        assert!(m.allocated_bytes > 0);
        m.free(id).unwrap();
        assert_eq!(m.live_buffers(), 0);
        assert_eq!(m.allocated_bytes, 0);
        assert!(m.free(id).is_err());
        assert!(m.read(id, 0).is_err());
    }

    #[test]
    fn oob_read_write() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::Int, vec![2]);
        assert!(m.read(id, 2).is_err());
        assert!(m.write(id, 5, Value::Int(1)).is_err());
        assert!(m.write(id, 1, Value::Int(1)).is_ok());
    }

    #[test]
    fn present_table_nesting() {
        let mut t = PresentTable::new();
        t.insert(
            "a",
            PresentEntry {
                buffer: BufferId(1),
                start: 0,
                len: 10,
                exit_action: ExitAction::CopyOut,
                refcount: 1,
            },
        );
        assert!(t.contains("a"));
        assert!(t.reenter("a"));
        // First exit: still referenced.
        assert!(t.exit("a").unwrap().is_none());
        assert!(t.contains("a"));
        // Second exit: releases.
        let e = t.exit("a").unwrap().unwrap();
        assert_eq!(e.exit_action, ExitAction::CopyOut);
        assert!(!t.contains("a"));
        // Exit without entry is a device error.
        assert!(t.exit("a").is_err());
    }

    #[test]
    fn reenter_missing_is_false() {
        let mut t = PresentTable::new();
        assert!(!t.reenter("ghost"));
    }

    #[test]
    fn names_sorted() {
        let mut t = PresentTable::new();
        for n in ["z", "a", "m"] {
            t.insert(
                n,
                PresentEntry {
                    buffer: BufferId(0),
                    start: 0,
                    len: 1,
                    exit_action: ExitAction::Release,
                    refcount: 1,
                },
            );
        }
        assert_eq!(t.names(), vec!["a", "m", "z"]);
    }

    #[test]
    fn scalar_buffers_have_len_one() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::Int, vec![]);
        assert_eq!(m.get(id).unwrap().len(), 1);
    }
}
