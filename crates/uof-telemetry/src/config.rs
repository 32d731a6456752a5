//! Telemetry configuration knobs.

/// Tuning knobs for the telemetry layer. A trace sink is attached at run
/// time with
/// [`Telemetry::attach_trace_writer`](crate::Telemetry::attach_trace_writer).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Whether metrics and span timings are recorded at all. Disabled (the
    /// default), spans are inert guards that read no clock.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// An enabled configuration.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }

    /// A disabled configuration (the default; spelled out for symmetry
    /// with the cache config's `disabled()` at test call sites).
    pub fn disabled() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let config = TelemetryConfig::default();
        assert!(!config.enabled);
        assert_eq!(config, TelemetryConfig::disabled());
        assert!(TelemetryConfig::enabled().enabled);
    }
}
