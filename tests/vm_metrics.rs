//! The `vm.*` metric names: a campaign and a service round export the
//! same twenty counters, and each one carries exactly the value of the
//! VM-counter field it is named after.

use std::collections::BTreeSet;
use std::sync::Arc;

use swsec::attacker::VICTIM_SMASH;
use swsec::campaign::{run_campaign, CampaignConfig};
use swsec::report::ExperimentId;
use swsec::serve::{CampaignService, JobSpec, ServeConfig, ServeTelemetry, TenantConfig};
use swsec_defenses::DefenseConfig;
use swsec_obs::MetricsRegistry;

/// Every exported `vm.*` counter beside the field it must equal.
macro_rules! vm_metrics {
    ($vm:expr) => {{
        let vm = $vm;
        [
            ("vm.instructions", vm.instructions),
            ("vm.icache.hits", vm.icache_hits),
            ("vm.icache.misses", vm.icache_misses),
            ("vm.tlb.hits", vm.tlb_hits),
            ("vm.tlb.misses", vm.tlb_misses),
            ("vm.tier2.blocks_compiled", vm.tier2_compiled),
            ("vm.tier2.block_hits", vm.tier2_hits),
            ("vm.tier2.instructions", vm.tier2_instructions),
            ("vm.tier2.side_exits", vm.tier2_side_exits),
            ("vm.tier2.invalidations", vm.tier2_invalidations),
            ("vm.tier2.ic_hits", vm.tier2_ic_hits),
            ("vm.tier2.ic_misses", vm.tier2_ic_misses),
            ("vm.tier2.ic_installs", vm.tier2_ic_installs),
            ("vm.tier2.ic_megamorphic", vm.tier2_ic_megamorphic),
            ("vm.snapshot.snapshots", vm.snapshots),
            ("vm.snapshot.restores", vm.restores),
            ("vm.snapshot.dirty_pages", vm.restore_dirty_pages),
            ("vm.snapshot.bytes_copied", vm.restore_bytes),
            ("vm.prof.samples", vm.prof_samples),
            ("vm.prof.frames", vm.prof_frames),
        ]
    }};
}

/// Checks each expected counter against `registry` and returns the
/// registry's `vm.*` key set.
fn check(what: &str, registry: &MetricsRegistry, expected: &[(&str, u64)]) -> BTreeSet<String> {
    let keys: BTreeSet<String> = registry
        .counters()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("vm."))
        .collect();
    for &(name, value) in expected {
        assert!(keys.contains(name), "{what}: {name} not exported");
        assert_eq!(registry.counter_value(name), value, "{what}: {name}");
    }
    keys
}

#[test]
fn campaign_and_service_export_the_same_vm_counters_as_their_fields() {
    // E4 and E14 brute-force through the fork server, so the snapshot
    // counters are non-zero too.
    let cfg = CampaignConfig {
        experiments: vec![ExperimentId::new(4), ExperimentId::new(14)],
        ..CampaignConfig::quick()
    };
    let report = run_campaign(&cfg);
    let campaign_registry = MetricsRegistry::new();
    report.absorb_into(&campaign_registry);
    let campaign = vm_metrics!(report.vm);
    assert!(report.vm.instructions > 0 && report.vm.restores > 0);
    let campaign_keys = check("campaign", &campaign_registry, &campaign);

    let service_registry = Arc::new(MetricsRegistry::new());
    let mut svc = CampaignService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let tenant = svc.register_tenant(TenantConfig {
        name: "t".to_string(),
        seed: 7,
        priority: 1,
        quota: 4,
    });
    for _ in 0..2 {
        svc.submit(
            tenant,
            JobSpec {
                source: VICTIM_SMASH.to_string(),
                config: DefenseConfig::none(),
                attempts: 8,
                max_input: 48,
            },
        )
        .unwrap();
    }
    let round = svc.run_with(&ServeTelemetry {
        metrics: Some(service_registry.clone()),
        spans: None,
        profiler: None,
    });
    let service = vm_metrics!(round.vm);
    assert!(round.vm.instructions > 0);
    let service_keys = check("service", &service_registry, &service);

    let named: BTreeSet<String> = campaign.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(named.len(), 20);
    assert_eq!(
        campaign_keys, named,
        "campaign exports exactly the listed names"
    );
    assert_eq!(
        service_keys, campaign_keys,
        "service and campaign vm.* key sets"
    );
}
