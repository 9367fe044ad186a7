//! OpenACC 1.0 environment variables.

use crate::device_type::DeviceType;
use std::fmt;

/// Environment variables defined by the 1.0 specification (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnvVar {
    /// `ACC_DEVICE_TYPE` — selects the default device type.
    DeviceType,
    /// `ACC_DEVICE_NUM` — selects the default device number.
    DeviceNum,
}

impl EnvVar {
    /// Both variables.
    pub const ALL: [EnvVar; 2] = [EnvVar::DeviceType, EnvVar::DeviceNum];

    /// The environment variable name.
    pub fn name(self) -> &'static str {
        match self {
            EnvVar::DeviceType => "ACC_DEVICE_TYPE",
            EnvVar::DeviceNum => "ACC_DEVICE_NUM",
        }
    }

    /// Resolve a name.
    pub fn from_name(s: &str) -> Option<EnvVar> {
        EnvVar::ALL.iter().copied().find(|v| v.name() == s)
    }
}

impl fmt::Display for EnvVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed environment configuration, as the simulated runtime receives it.
///
/// The real runtime reads the process environment; the simulated one receives
/// an explicit `EnvConfig` so tests are hermetic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EnvConfig {
    /// Parsed `ACC_DEVICE_TYPE`, if set and valid.
    pub device_type: Option<DeviceType>,
    /// Parsed `ACC_DEVICE_NUM`, if set and valid.
    pub device_num: Option<u32>,
    /// Raw settings that failed to parse (name, raw value) — the spec says
    /// behaviour is implementation-defined; we record and ignore them.
    pub invalid: Vec<(String, String)>,
}

impl EnvConfig {
    /// An empty configuration (no ACC_* variables set).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parse from `(name, value)` pairs, e.g. a captured environment.
    ///
    /// Device-type values accept both the spelled constant
    /// (`acc_device_nvidia`) and the conventional short form (`NVIDIA`,
    /// case-insensitive, mapped onto the vendor extension space).
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let mut cfg = EnvConfig::default();
        for (name, value) in pairs {
            match EnvVar::from_name(name) {
                Some(EnvVar::DeviceType) => match parse_device_type(value) {
                    Some(d) => cfg.device_type = Some(d),
                    None => cfg.invalid.push((name.to_string(), value.to_string())),
                },
                Some(EnvVar::DeviceNum) => match value.parse::<u32>() {
                    Ok(n) => cfg.device_num = Some(n),
                    Err(_) => cfg.invalid.push((name.to_string(), value.to_string())),
                },
                None => {} // not an ACC_* variable we model
            }
        }
        cfg
    }
}

fn parse_device_type(value: &str) -> Option<DeviceType> {
    if let Some(d) = DeviceType::from_symbol(value) {
        return Some(d);
    }
    match value.to_ascii_uppercase().as_str() {
        "NONE" => Some(DeviceType::None),
        "DEFAULT" => Some(DeviceType::Default),
        "HOST" => Some(DeviceType::Host),
        "NOT_HOST" => Some(DeviceType::NotHost),
        "NVIDIA" => Some(DeviceType::Nvidia),
        "RADEON" => Some(DeviceType::Radeon),
        "XEONPHI" => Some(DeviceType::XeonPhi),
        "CUDA" => Some(DeviceType::Cuda),
        "OPENCL" => Some(DeviceType::Opencl),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for v in EnvVar::ALL {
            assert_eq!(EnvVar::from_name(v.name()), Some(v));
        }
        assert_eq!(EnvVar::from_name("ACC_WIDGETS"), None);
    }

    #[test]
    fn parse_pairs() {
        let cfg = EnvConfig::from_pairs([
            ("ACC_DEVICE_TYPE", "NVIDIA"),
            ("ACC_DEVICE_NUM", "2"),
            ("PATH", "/usr/bin"),
        ]);
        assert_eq!(cfg.device_type, Some(DeviceType::Nvidia));
        assert_eq!(cfg.device_num, Some(2));
        assert!(cfg.invalid.is_empty());
    }

    #[test]
    fn parse_symbolic_device_type() {
        let cfg = EnvConfig::from_pairs([("ACC_DEVICE_TYPE", "acc_device_host")]);
        assert_eq!(cfg.device_type, Some(DeviceType::Host));
    }

    #[test]
    fn invalid_values_recorded_not_fatal() {
        let cfg = EnvConfig::from_pairs([
            ("ACC_DEVICE_TYPE", "QUANTUM"),
            ("ACC_DEVICE_NUM", "minus-one"),
        ]);
        assert_eq!(cfg.device_type, None);
        assert_eq!(cfg.device_num, None);
        assert_eq!(cfg.invalid.len(), 2);
    }

    #[test]
    fn case_insensitive_short_forms() {
        let cfg = EnvConfig::from_pairs([("ACC_DEVICE_TYPE", "nvidia")]);
        assert_eq!(cfg.device_type, Some(DeviceType::Nvidia));
    }

    #[test]
    fn empty_is_default() {
        assert_eq!(EnvConfig::empty(), EnvConfig::from_pairs([]));
    }
}
