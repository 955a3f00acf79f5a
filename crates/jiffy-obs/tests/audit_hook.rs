//! Deterministic record-vs-dump interleaving via the `audit-sched`
//! scripted-hook layer (run with `--features audit-sched`).
//!
//! The stress test in `recorder.rs` races a dumper against a live
//! writer and hopes to catch a mid-write slot; this test *parks the
//! writer inside the publication window on purpose* — at the
//! `obs::record-mid` probe, after the payload stores but before the
//! seq publication — and dumps from right there, proving the seqlock
//! skips the half-written slot instead of tearing it.

#![cfg(feature = "audit-sched")]

use std::sync::{Arc, Mutex};

use jiffy_obs::recorder;
use jiffy_obs::{trace_event, TraceEvent};

const WRITER: &str = "obs-hook-writer";

fn writer_ring_events() -> Vec<TraceEvent> {
    recorder::rings()
        .into_iter()
        .find(|r| r.thread_name() == WRITER)
        .map(|r| r.collect())
        .unwrap_or_default()
}

#[test]
fn dump_inside_the_publication_window_skips_the_half_written_slot() {
    let mid_dump: Arc<Mutex<Option<Vec<TraceEvent>>>> = Arc::new(Mutex::new(None));
    let mid_dump_hook = Arc::clone(&mid_dump);
    let hook = jiffy_audit::sched::install(Arc::new(move |site| {
        if site != "obs::record-mid" {
            return;
        }
        let me = std::thread::current();
        if me.name() != Some(WRITER) {
            return;
        }
        let mut slot = mid_dump_hook.lock().unwrap();
        // Only the *second* event's mid-write window is interesting:
        // by then event A is published and event B is half-written.
        if slot.is_none() && !writer_ring_events().is_empty() {
            *slot = Some(writer_ring_events());
        }
    }));

    jiffy_audit::sched::spawn_named(&hook, Some(WRITER), || {
        trace_event!(MergeBuild, 111i64, 0xA, 0xA);
        trace_event!(MergeComplete, 222i64, 0xB, 0xB);
    })
    .join()
    .unwrap();
    drop(hook);

    let mid = mid_dump.lock().unwrap().clone().expect("hook fired inside the second record");
    // The dump taken mid-publication of event B sees exactly event A —
    // whole — and nothing of B: no stamp/payload mix, no phantom slot.
    assert_eq!(mid.len(), 1, "half-written slot must be skipped: {mid:?}");
    assert_eq!(mid[0].stamp, 111);
    assert_eq!((mid[0].a, mid[0].b), (0xA, 0xA));
    // After the writer finishes, both events are visible and whole.
    let after = writer_ring_events();
    assert_eq!(after.len(), 2, "{after:?}");
    assert_eq!((after[0].stamp, after[1].stamp), (111, 222));
    assert_eq!((after[1].a, after[1].b), (0xB, 0xB));
}
