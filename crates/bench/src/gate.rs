//! Helpers shared by the service gate binaries (`si_chaos`, `si_loadgen`,
//! `si_netfuzz`).

use si_service::json::Json;
use si_service::service::SiService;

/// One counter out of a live `/metrics` snapshot; 0 when absent.
#[must_use]
pub fn svc_counter(service: &SiService, section: &str, key: &str) -> f64 {
    service
        .metrics()
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Installs a panic hook that keeps injected worker panics (whose message
/// contains `injected fault`) out of the report while letting every other
/// panic print through the previous hook.
pub fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fault"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
}
