//! Name resolution: assign every identifier a frame slot index.
//!
//! The interpreter used to resolve every variable and array reference
//! through `HashMap<String, Value>` environments, cloning `String` keys on
//! each write — per loop iteration in the hot paths. This pass runs once
//! after sema and produces, per function, a [`FrameLayout`]: a dense
//! `name ↔ slot` mapping covering **every** identifier the function can
//! touch at run time (parameters, declarations, loop variables, assignment
//! targets, every `Expr::Var`/`Expr::Index` base, and all names appearing in
//! OpenACC clauses — private/firstprivate/reduction lists, data references,
//! `deviceptr`/`use_device` lists, wait/cache arguments). The interpreter
//! then backs its frames with slot-indexed `Vec` storage: loop bodies update
//! a pre-resolved slot instead of hashing and cloning a key per iteration.
//!
//! Unbound names are not an error here — a slot simply starts without a
//! binding, and reads of unbound slots surface through the interpreter's
//! existing "undefined variable" crash path (or fall through to device
//! constants such as `acc_device_nvidia`, which appear as plain `Expr::Var`
//! references and therefore also receive slots).

use acc_ast::{AccClause, AccDirective, Expr, LValue, Name, Program, Stmt};
use acc_spec::FxHashMap;

/// The dense `name ↔ slot` mapping for one function's frame. The slot list
/// and the index hold clones of the program's own [`Name`]s, which copy no
/// text.
#[derive(Debug, Clone, Default)]
pub struct FrameLayout {
    names: Vec<Name>,
    index: FxHashMap<Name, u32>,
}

impl FrameLayout {
    /// The slot of `name`, assigning the next free one at its first
    /// mention.
    fn assign(&mut self, name: &Name) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.clone());
        self.index.insert(name.clone(), i);
        i
    }

    /// The slot assigned to `name`, if any.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(name).map(|&i| i as usize)
    }

    /// The name stored at `slot`.
    pub fn name(&self, slot: usize) -> &Name {
        &self.names[slot]
    }

    /// Number of slots in the frame.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the layout has no slots.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All slot names, in slot order.
    pub fn names(&self) -> &[Name] {
        &self.names
    }
}

/// Per-function frame layouts for a whole program, produced by [`resolve`].
#[derive(Debug, Clone, Default)]
pub struct ResolvedProgram {
    layouts: Vec<FrameLayout>,
    by_function: FxHashMap<Name, usize>,
}

impl ResolvedProgram {
    /// The layout of the named function (every program function has one).
    pub fn layout(&self, function: &str) -> Option<&FrameLayout> {
        self.by_function.get(function).map(|&i| &self.layouts[i])
    }

    /// Number of resolved functions.
    pub fn len(&self) -> usize {
        self.layouts.len()
    }

    /// True when no functions were resolved.
    pub fn is_empty(&self) -> bool {
        self.layouts.is_empty()
    }
}

/// Resolve every function of `program` to a [`FrameLayout`].
pub fn resolve(program: &Program) -> ResolvedProgram {
    let mut layouts = Vec::with_capacity(program.functions.len());
    let mut by_function =
        FxHashMap::with_capacity_and_hasher(program.functions.len(), Default::default());
    for f in &program.functions {
        let mut layout = FrameLayout::default();
        // Parameters first: their slots are the call frame's prefix.
        for p in &f.params {
            layout.assign(&p.name);
        }
        for s in &f.body {
            s.visit(&mut |st| collect_stmt(st, &mut layout));
        }
        by_function.insert(f.name.clone(), layouts.len());
        layouts.push(layout);
    }
    ResolvedProgram {
        layouts,
        by_function,
    }
}

/// Collect the names of one statement node (bodies are handled by the
/// caller's [`Stmt::visit`] traversal).
fn collect_stmt(s: &Stmt, layout: &mut FrameLayout) {
    match s {
        Stmt::DeclScalar { name, init, .. } => {
            layout.assign(name);
            if let Some(e) = init {
                collect_expr(e, layout);
            }
        }
        Stmt::DeclArray { name, dims, .. } => {
            layout.assign(name);
            let _ = dims;
        }
        Stmt::Assign { target, value, .. } => {
            collect_lvalue(target, layout);
            collect_expr(value, layout);
        }
        Stmt::For(l) => {
            layout.assign(&l.var);
            collect_expr(&l.from, layout);
            collect_expr(&l.to, layout);
            collect_expr(&l.step, layout);
        }
        Stmt::If { cond, .. } => collect_expr(cond, layout),
        Stmt::Call { args, .. } => {
            for a in args {
                collect_expr(a, layout);
            }
        }
        Stmt::Return(e) => collect_expr(e, layout),
        Stmt::AccBlock { dir, .. } | Stmt::AccStandalone { dir } => {
            collect_directive(dir, layout);
        }
        Stmt::AccLoop { dir, l } => {
            collect_directive(dir, layout);
            layout.assign(&l.var);
            collect_expr(&l.from, layout);
            collect_expr(&l.to, layout);
            collect_expr(&l.step, layout);
        }
    }
}

fn collect_lvalue(lv: &LValue, layout: &mut FrameLayout) {
    match lv {
        LValue::Var(n) => {
            layout.assign(n);
        }
        LValue::Index { base, indices } => {
            layout.assign(base);
            for i in indices {
                collect_expr(i, layout);
            }
        }
    }
}

fn collect_expr(e: &Expr, layout: &mut FrameLayout) {
    e.visit(&mut |x| match x {
        Expr::Var(n) => {
            layout.assign(n);
        }
        Expr::Index { base, .. } => {
            layout.assign(base);
        }
        _ => {}
    });
}

fn collect_directive(dir: &AccDirective, layout: &mut FrameLayout) {
    if let Some(e) = &dir.wait_arg {
        collect_expr(e, layout);
    }
    for r in &dir.cache_args {
        layout.assign(&r.name);
        if let Some((a, b)) = &r.section {
            collect_expr(a, layout);
            collect_expr(b, layout);
        }
    }
    for c in &dir.clauses {
        match c {
            AccClause::If(e)
            | AccClause::NumGangs(e)
            | AccClause::NumWorkers(e)
            | AccClause::VectorLength(e)
            | AccClause::Collapse(e) => collect_expr(e, layout),
            AccClause::Async(e)
            | AccClause::Gang(e)
            | AccClause::Worker(e)
            | AccClause::Vector(e) => {
                if let Some(e) = e {
                    collect_expr(e, layout);
                }
            }
            AccClause::Reduction(_, names)
            | AccClause::Private(names)
            | AccClause::Firstprivate(names)
            | AccClause::Deviceptr(names)
            | AccClause::UseDevice(names) => {
                for n in names {
                    layout.assign(n);
                }
            }
            AccClause::Data(_, refs) => {
                for r in refs {
                    layout.assign(&r.name);
                    if let Some((a, b)) = &r.section {
                        collect_expr(a, layout);
                        collect_expr(b, layout);
                    }
                }
            }
            AccClause::Seq | AccClause::Independent | AccClause::DefaultNone | AccClause::Auto => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_spec::Language;

    fn resolved(src: &str) -> ResolvedProgram {
        let program = crate::parse(src, Language::C).unwrap();
        resolve(&program)
    }

    #[test]
    fn covers_decls_loops_and_clause_names() {
        let r = resolved(
            "int main(void) {\n\
             \x20   int error = 0;\n\
             \x20   int A[8];\n\
             \x20   #pragma acc parallel num_gangs(n) copy(A[0:8]) private(t) reduction(+:s)\n\
             \x20   {\n\
             \x20       #pragma acc loop\n\
             \x20       for (i = 0; i < 8; i++)\n\
             \x20       {\n\
             \x20           A[i] = A[i] + 1;\n\
             \x20       }\n\
             \x20   }\n\
             \x20   return error == 0;\n\
             }\n",
        );
        let layout = r.layout("main").expect("main resolved");
        for name in ["error", "A", "i", "n", "t", "s"] {
            assert!(layout.slot(name).is_some(), "missing slot for {name}");
        }
        // Slots are dense and names round-trip.
        for (i, name) in layout.names().iter().enumerate() {
            assert_eq!(layout.slot(name), Some(i));
            assert_eq!(layout.name(i), name);
        }
    }

    #[test]
    fn device_constants_get_slots_too() {
        // `acc_device_nvidia` appears as a plain variable reference; the
        // interpreter resolves it through its device-constant fallback, but
        // it still needs a slot so the lookup path is uniform.
        let r = resolved(
            "int main(void) {\n\
             \x20   int t = 0;\n\
             \x20   t = acc_get_device_type();\n\
             \x20   return t == acc_device_nvidia;\n\
             }\n",
        );
        let layout = r.layout("main").unwrap();
        assert!(layout.slot("acc_device_nvidia").is_some());
        assert!(layout.slot("t").is_some());
    }

    #[test]
    fn duplicate_mentions_share_one_slot() {
        let r = resolved(
            "int main(void) {\n\
             \x20   int x = 1;\n\
             \x20   x = x + x;\n\
             \x20   return x;\n\
             }\n",
        );
        let layout = r.layout("main").unwrap();
        assert_eq!(layout.len(), 1);
        assert_eq!(layout.slot("x"), Some(0));
    }
}
