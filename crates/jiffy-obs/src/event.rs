//! The event taxonomy: every lifecycle transition the flight recorder
//! can witness, one discriminant per protocol step that has historically
//! mattered in a post-mortem.
//!
//! Each event carries the *version stamp* under which the transition was
//! observed — drawn from the same shared clock that orders every Jiffy
//! write (paper §3.3.4) — which is what makes per-thread traces globally
//! mergeable by a plain sort.

/// What happened. Discriminants are stable (they appear in dumps, JSON
/// reports and golden-trace fixtures), so new kinds are appended, never
/// renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A two-phase cross-shard batch drew its shared pending version
    /// (`a` = number of participating shards when known).
    TwoPhasePrepare = 0,
    /// A prepared two-phase descriptor was installed on one shard
    /// (`a` = descriptor address, `b` = ops in the descriptor).
    TwoPhaseInstall = 1,
    /// The shared version cell was finalized: the batch is committed
    /// (stamp = the final, positive version).
    TwoPhaseCommit = 2,
    /// The shared version cell was aborted before finalization.
    TwoPhaseAbort = 3,
    /// A helper (not the initiator) resolved someone else's pending
    /// batch to completion (`a` = descriptor address).
    TwoPhaseHelp = 4,

    /// A merge revision was built and installed at the predecessor's
    /// head (`a` = merge-revision address, `b` = terminator address).
    MergeBuild = 5,
    /// A merge revision was adopted into the victim's terminator
    /// (`mterm.merge_rev` CAS won; `a` = merge-revision address).
    MergeAdopt = 6,
    /// Phases 4–6 finished: the victim is unlinked and the merge's
    /// `completed` latch is set (`a` = merge-revision address).
    MergeComplete = 7,
    /// The cleanup claim was won and the victim node + terminator were
    /// handed to the epoch reclaimer (`a` = victim-node address).
    MergeCleanup = 8,

    /// A split revision was installed at a node head (`a` = split-
    /// revision address).
    SplitBuild = 9,
    /// The temporary split node was linked after the splitting node
    /// (`a` = temp-node address).
    SplitTemp = 10,
    /// The real right-hand node replaced the temporary one; the split
    /// is structurally visible (`a` = new-node address).
    SplitPublish = 11,

    /// A reshard migration was staged: the pending router epoch CAS
    /// won (`a` = source shards, `b` = target shards).
    ReshardStage = 12,
    /// The staged migration's post-cut delta was drained into the
    /// target shards (`a` = delta entries applied).
    ReshardDrain = 13,
    /// The migration's commit CAS won: the new router layout is live
    /// (`a` = shard count after cutover).
    ReshardCutover = 14,

    /// The reshard `WriterGate` observed quiescence (`a` = the
    /// completed-writer count observed quiescent).
    GateQuiesce = 15,
    /// The cached §3.3.4 GC floor advanced (stamp = the new floor; `a`
    /// = the previous floor).
    GcFloorAdvance = 16,
    /// Helping backoff ramped (verbose builds only; `a` = rival hint,
    /// `b` = progress counter at the wait).
    BackoffRamp = 17,

    /// A WAL record was appended to a stripe's page-cache buffer
    /// (verbose builds only; `a` = stripe, `b` = encoded bytes).
    WalAppend = 18,
    /// A stripe's buffered WAL tail was flushed and fsynced — the group
    /// commit point (`a` = stripe, `b` = bytes flushed).
    WalSync = 19,
    /// A checkpoint started: per-stripe watermarks were latched before
    /// the first chunk scan (`a` = checkpoint id, `b` = stripe count).
    CkptBegin = 20,
    /// One sorted, checksummed checkpoint chunk reached disk
    /// (`a` = chunk index, `b` = entries in the chunk).
    CkptChunk = 21,
    /// A checkpoint's manifest committed — the checkpoint is now the
    /// recovery target (`a` = total entries, `b` = chunk count).
    CkptEnd = 22,
    /// WAL segments wholly covered by the oldest retained checkpoint
    /// were deleted (`a` = stripe, `b` = segments removed).
    WalPrune = 23,
    /// Recovery replayed the WAL tail over a bulk-loaded checkpoint
    /// (`a` = records replayed, `b` = checkpoint id + 1, 0 = none).
    RecoverReplay = 24,
}

/// Number of event kinds (sizes the per-kind counter blocks).
pub const KIND_COUNT: usize = 25;

/// All kinds in discriminant order (drives counter reports and docs).
pub const ALL_KINDS: [EventKind; KIND_COUNT] = [
    EventKind::TwoPhasePrepare,
    EventKind::TwoPhaseInstall,
    EventKind::TwoPhaseCommit,
    EventKind::TwoPhaseAbort,
    EventKind::TwoPhaseHelp,
    EventKind::MergeBuild,
    EventKind::MergeAdopt,
    EventKind::MergeComplete,
    EventKind::MergeCleanup,
    EventKind::SplitBuild,
    EventKind::SplitTemp,
    EventKind::SplitPublish,
    EventKind::ReshardStage,
    EventKind::ReshardDrain,
    EventKind::ReshardCutover,
    EventKind::GateQuiesce,
    EventKind::GcFloorAdvance,
    EventKind::BackoffRamp,
    EventKind::WalAppend,
    EventKind::WalSync,
    EventKind::CkptBegin,
    EventKind::CkptChunk,
    EventKind::CkptEnd,
    EventKind::WalPrune,
    EventKind::RecoverReplay,
];

impl EventKind {
    /// Decode a stored discriminant; `None` for values this build does
    /// not know (a ring written by a newer binary).
    pub fn from_u16(v: u16) -> Option<EventKind> {
        ALL_KINDS.get(v as usize).copied()
    }

    /// Stable display name (used in dumps, JSON and fixtures).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TwoPhasePrepare => "TwoPhasePrepare",
            EventKind::TwoPhaseInstall => "TwoPhaseInstall",
            EventKind::TwoPhaseCommit => "TwoPhaseCommit",
            EventKind::TwoPhaseAbort => "TwoPhaseAbort",
            EventKind::TwoPhaseHelp => "TwoPhaseHelp",
            EventKind::MergeBuild => "MergeBuild",
            EventKind::MergeAdopt => "MergeAdopt",
            EventKind::MergeComplete => "MergeComplete",
            EventKind::MergeCleanup => "MergeCleanup",
            EventKind::SplitBuild => "SplitBuild",
            EventKind::SplitTemp => "SplitTemp",
            EventKind::SplitPublish => "SplitPublish",
            EventKind::ReshardStage => "ReshardStage",
            EventKind::ReshardDrain => "ReshardDrain",
            EventKind::ReshardCutover => "ReshardCutover",
            EventKind::GateQuiesce => "GateQuiesce",
            EventKind::GcFloorAdvance => "GcFloorAdvance",
            EventKind::BackoffRamp => "BackoffRamp",
            EventKind::WalAppend => "WalAppend",
            EventKind::WalSync => "WalSync",
            EventKind::CkptBegin => "CkptBegin",
            EventKind::CkptChunk => "CkptChunk",
            EventKind::CkptEnd => "CkptEnd",
            EventKind::WalPrune => "WalPrune",
            EventKind::RecoverReplay => "RecoverReplay",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One merged, validated trace entry.
///
/// The total order over a merged trace is `(stamp, hinted, thread,
/// seq)`: primary key is the shared-clock version stamp; at equal
/// stamps, clock-exact events sort before *hinted* ones (see below);
/// remaining ties (same stamp from two threads, or a coarse clock)
/// break deterministically by recorder thread id and then by the
/// recorder's per-thread sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Shared-clock version stamp (non-negative by call-site convention:
    /// pending/optimistic versions are recorded as their magnitude).
    pub stamp: i64,
    /// Whether `stamp` was *borrowed* via `stamp_hint()` rather than
    /// read from a clock in scope at the instrumentation point. A
    /// hinted stamp is the recorder's high-water mark at record time:
    /// the event happened *at or after* that stamp was current, never
    /// before it — so at equal stamps, hinted events sort after
    /// clock-exact ones.
    pub hinted: bool,
    /// Recorder thread id (registration order, dense from 0).
    pub thread: u32,
    /// Per-thread sequence number (1-based; the thread's n-th event).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (kind-specific; addresses, counts).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

impl TraceEvent {
    /// The deterministic merge key: `(stamp, hinted, thread, seq)`.
    /// `hinted` second: a borrowed stamp is a lower bound on when the
    /// event happened, so the clock-exact event that *produced* a tied
    /// stamp must come first — without this, the tiebreak fell through
    /// to thread id and could place a hinted event before the very
    /// event its stamp was borrowed from.
    pub fn order_key(&self) -> (i64, bool, u32, u64) {
        (self.stamp, self.hinted, self.thread, self.seq)
    }
}
