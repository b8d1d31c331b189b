//! The in-process replay of an `eco_session` edit stream through
//! `PlacementService`, holding each base result until its replace has
//! run. Its per-job metric strings must equal the daemon's `job-done`
//! fields.

use crate::json::Json;
use crate::trace::{load, Spans};
use eval::EvalConfig;
use netlist::HeapSize;
use placer_core::{
    DesignStore, EffortLevel, JobId, JobResult, JobState, PlaceJob, PlacementService,
};
use std::path::Path;

/// The fields of a `job-done` frame that depend on the placement, rendered
/// the way the daemon renders them (`Display`).
fn job_fields(result: &JobResult) -> Json {
    let mut fields = Vec::new();
    if let Some(log) = &result.edit_log {
        fields.push(("edits_applied", Json::Str(log.applied.to_string())));
        fields.push(("pure_geometry", Json::Str(log.diff.is_pure_geometry().to_string())));
    }
    if let Some(m) = &result.outcome.metrics {
        fields.extend([
            ("hpwl_dbu", Json::Str(m.hpwl.dbu.to_string())),
            ("wirelength_m", Json::Str(m.wirelength_m.to_string())),
            ("grc_percent", Json::Str(m.grc_percent().to_string())),
            ("wns_percent", Json::Str(m.wns_percent().to_string())),
            ("tns_ns", Json::Str(m.tns_ns().to_string())),
        ]);
    }
    Json::object(fields)
}

/// Replays the cold base job and the first `jobs` edit scripts of
/// `dir/edits.txt`. Returns the design record and one field set per job,
/// the base first.
pub fn replay(dir: &Path, top: &str, jobs: usize) -> Result<Json, String> {
    let (design, _) = load(dir, top, &mut Spans::default())?;
    let mut record = crate::workloads::design_record(&design);
    record.push(("design_mib", Json::from(design.resident_bytes() as f64 / (1u64 << 20) as f64)));
    let scripts = std::fs::read_to_string(dir.join("edits.txt"))
        .map_err(|e| format!("cannot read the edit stream: {e}"))?;

    let mut service =
        PlacementService::with_store(baselines::default_registry(), DesignStore::new())
            .with_jobs(1);
    let handle = service.intern(design);
    let job = || {
        PlaceJob::new(handle, "hidap")
            .with_effort(EffortLevel::Fast)
            .with_evaluation(EvalConfig::standard())
    };
    let take = |service: &mut PlacementService, id: JobId| match service.take_result(id) {
        Some(Ok(result)) => Ok(job_fields(&result)),
        Some(Err(e)) => Err(format!("job {} failed: {e}", id.0)),
        None => Err(format!("job {} did not run", id.0)),
    };

    let mut base = service.submit(job());
    service.run_all();
    let mut out = Vec::new();
    for (i, script) in scripts.lines().take(jobs).enumerate() {
        let design = service.store().get_design(handle).ok_or("the design was evicted")?;
        let edits = netlist::edit::parse_edit_script(script, design)
            .map_err(|e| format!("edit {i} does not parse: {e}"))?;
        let id = service.submit(job().with_replace(base, edits));
        service.run_all();
        if service.job_state(id) != (JobState::Finished { ok: true }) {
            return Err(take(&mut service, id).err().unwrap_or_else(|| format!("edit {i} failed")));
        }
        // the replace has run: its base is no longer needed
        out.push(take(&mut service, base)?);
        base = id;
    }
    out.push(take(&mut service, base)?);
    Ok(Json::object(vec![("design", Json::object(record)), ("jobs", Json::Array(out))]))
}
