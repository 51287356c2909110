//! Confidence-region detection on a service's factor.
//!
//! A CRD run is one sweep over a factor refactored in marginal order, not a
//! stream of independent boxes, so the served entry points do not submit
//! problems: they fetch the spec's factor from its shard
//! ([`MvnService::factor`] — built once, then served from cache across
//! *every* CRD run against the same field) and run the library drivers on
//! it, on an engine over the service's worker pool with the service's
//! sampling configuration (`ServiceConfig::mvn`; the `CrdConfig`'s own is
//! not consulted — a server answers with its own configuration).
//!
//! The results are bitwise identical to
//! [`excursion::detect_confidence_regions`] with that sampling configuration
//! and the spec's correlation factor (tested in
//! `tests/service_equivalence.rs`).

use crate::service::{MvnService, ServiceError, SpecHandle};
use excursion::{CrdConfig, CrdResult};
use mvn_core::{Factor, FactorKind, MvnEngine, ProblemError};
use std::sync::Arc;

/// Everything a served CRD run needs, or the typed reason it cannot run:
/// the spec must be standardized (CRD integrates under the correlation
/// matrix) and dense or TLR, and `mean` must have one entry per location.
fn served_inputs(
    service: &MvnService,
    handle: &SpecHandle,
    mean: &[f64],
    cfg: &CrdConfig,
) -> Result<(MvnEngine, Arc<Factor>, Vec<f64>, CrdConfig), ServiceError> {
    let spec = handle.spec();
    if !spec.standardize {
        return Err(ServiceError::InvalidSpec(
            "CRD integrates under the correlation matrix: use a standardized spec".into(),
        ));
    }
    if matches!(spec.kind, FactorKind::Vecchia { .. }) {
        return Err(ServiceError::InvalidSpec(
            "CRD needs a dense or TLR factor".into(),
        ));
    }
    if mean.len() != spec.n() {
        return Err(ServiceError::InvalidProblem(
            ProblemError::DimensionMismatch {
                expected: spec.n(),
                got: mean.len(),
            },
        ));
    }
    let factor = service.factor(handle)?;
    let cfg = CrdConfig {
        mvn: service.config().mvn,
        ..cfg.clone()
    };
    Ok((service.engine(), factor, spec.standard_deviations(), cfg))
}

/// [`excursion::detect_confidence_regions`] on the service's factor of the
/// spec (see the [module docs](self)). `sd` is derived from the spec
/// ([`crate::CovSpec::standard_deviations`]).
pub fn detect_confidence_regions_served(
    service: &MvnService,
    handle: &SpecHandle,
    mean: &[f64],
    cfg: &CrdConfig,
) -> Result<CrdResult, ServiceError> {
    let (engine, factor, sd, cfg) = served_inputs(service, handle, mean, cfg)?;
    Ok(excursion::detect_confidence_regions(
        &engine, &factor, mean, &sd, &cfg,
    ))
}

/// [`excursion::find_excursion_set`] on the service's factor of the spec
/// (see [`detect_confidence_regions_served`]).
pub fn find_excursion_set_served(
    service: &MvnService,
    handle: &SpecHandle,
    mean: &[f64],
    cfg: &CrdConfig,
) -> Result<(Vec<usize>, f64), ServiceError> {
    let (engine, factor, sd, cfg) = served_inputs(service, handle, mean, cfg)?;
    Ok(excursion::find_excursion_set(
        &engine, &factor, mean, &sd, &cfg,
    ))
}
