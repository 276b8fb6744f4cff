//! Fabric configuration.

/// Which allocator the fabric uses to divide link bandwidth max-min
/// fairly. Both compute the same allocation; they differ in cost.
///
/// * `Auto` (the default) serves every component that a
///   progressive-filling pass proves single-bottleneck with the
///   analytic O(log n) engine (`harvest_sim::fairshare::FairShare`)
///   and falls back to component-scoped filling everywhere else.
/// * `Filling` keeps every component on progressive filling: the A/B
///   baseline for timing the analytic tier.
///
/// Rates are bitwise identical in both modes. Completion times may
/// differ by float reassociation, which the millisecond clock almost
/// always rounds away. The disk pool has no such knob: every disk
/// channel is single-bottleneck, so it always runs the analytic engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SharingMode {
    /// Analytic engine on proven single-bottleneck components,
    /// progressive filling elsewhere.
    #[default]
    Auto,
    /// Progressive filling everywhere.
    Filling,
}

impl SharingMode {
    /// Parses a `--sharing` argument: `auto` or `filling`.
    pub fn parse(s: &str) -> Option<SharingMode> {
        match s {
            "auto" => Some(SharingMode::Auto),
            "filling" => Some(SharingMode::Filling),
            _ => None,
        }
    }

    /// The flag spelling, for help text and reports.
    pub fn name(self) -> &'static str {
        match self {
            SharingMode::Auto => "auto",
            SharingMode::Filling => "filling",
        }
    }
}

/// Link speeds and oversubscription of the datacenter fabric.
///
/// The model is the classic three-tier datacenter network reduced to the
/// two places bandwidth is actually scarce: server NICs and the
/// rack-uplink tier. Aggregation and core are folded into the rack
/// uplinks' oversubscription ratio (a non-blocking core behind 4:1
/// oversubscribed ToR uplinks behaves, at flow level, like the uplinks
/// alone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Server NIC speed in Gbit/s, full duplex (10 GbE by default —
    /// the paper's era of Microsoft datacenters).
    pub nic_gbps: f64,
    /// Rack-uplink oversubscription ratio: a rack of `RACK_SIZE` servers
    /// with `nic_gbps` NICs gets `RACK_SIZE * nic_gbps / oversubscription`
    /// of uplink capacity. 1.0 is a non-blocking fabric; production
    /// datacenters of the paper's era ran 4:1 and worse.
    pub oversubscription: f64,
    /// Fixed one-way latency added per traversed link, in milliseconds
    /// (serialization + switching; dwarfed by transfer time for blocks,
    /// visible for small reads).
    pub hop_latency_ms: f64,
    /// The bandwidth allocator (see [`SharingMode`]), read once when a
    /// fabric is built.
    pub sharing: SharingMode,
}

impl NetworkConfig {
    /// 10 GbE NICs behind 4:1 oversubscribed rack uplinks.
    pub fn datacenter() -> Self {
        NetworkConfig {
            nic_gbps: 10.0,
            oversubscription: 4.0,
            hop_latency_ms: 0.05,
            sharing: SharingMode::Auto,
        }
    }

    /// A non-blocking fabric (useful as the "network off" baseline that
    /// still accounts NIC serialization).
    pub fn non_blocking() -> Self {
        NetworkConfig {
            nic_gbps: 10.0,
            oversubscription: 1.0,
            hop_latency_ms: 0.05,
            sharing: SharingMode::Auto,
        }
    }

    /// NIC capacity in bytes per second.
    pub fn nic_bytes_per_sec(&self) -> f64 {
        self.nic_gbps * 1e9 / 8.0
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a speed or ratio is non-positive or non-finite.
    pub fn validate(&self) {
        assert!(
            self.nic_gbps > 0.0 && self.nic_gbps.is_finite(),
            "NIC speed must be positive, got {}",
            self.nic_gbps
        );
        assert!(
            self.oversubscription >= 1.0 && self.oversubscription.is_finite(),
            "oversubscription must be >= 1, got {}",
            self.oversubscription
        );
        assert!(
            self.hop_latency_ms >= 0.0 && self.hop_latency_ms.is_finite(),
            "hop latency must be non-negative, got {}",
            self.hop_latency_ms
        );
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::datacenter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        NetworkConfig::datacenter().validate();
        NetworkConfig::non_blocking().validate();
    }

    #[test]
    fn nic_conversion() {
        let c = NetworkConfig::datacenter();
        assert_eq!(c.nic_bytes_per_sec(), 1.25e9);
    }

    #[test]
    fn sharing_mode_parses_and_round_trips() {
        for mode in [SharingMode::Auto, SharingMode::Filling] {
            assert_eq!(SharingMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(SharingMode::parse("analytic"), None);
        assert_eq!(SharingMode::parse("fair"), None);
        assert_eq!(SharingMode::default(), SharingMode::Auto);
        assert_eq!(NetworkConfig::datacenter().sharing, SharingMode::Auto);
    }

    #[test]
    #[should_panic(expected = "oversubscription")]
    fn undersubscription_rejected() {
        let mut c = NetworkConfig::datacenter();
        c.oversubscription = 0.5;
        c.validate();
    }
}
