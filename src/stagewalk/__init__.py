"""stagewalk: a userspace model of VFS path resolution.

Three interchangeable lookup strategies over one in-memory directory tree:

- original: component-wise walk from the root through each directory's
  children map, counted as the kernel's d_hash chain lookup;
- fullpath: a whole-path-indexed cache with version-checked hits;
- stage: two-stage lookup that starts the walk at the deepest cached pivot
  sharing a prefix with the query, managed by heat-based candidate admission
  and a pivot pool rebuilt each period and swapped in behind readers.

The workload module generates trees, synthesizes traces, and replays them,
reporting operation counters instead of wall-clock latency.
"""

from .engine import MetadataView, OriginalLookup, StageLookupEngine, StageResult
from .epoch import PivotManager, ReclaimQueue
from .errors import (
    AlreadyExists,
    ConfigError,
    ContractViolation,
    EngineError,
    InvalidPath,
    NotADirectory,
    NotFound,
    PermissionDenied,
    SpecInvalid,
    TraceMalformed,
    Unsupported,
)
from .fullpath import FullPathCache
from .heat import Admission, CandidateSet, HeatEpoch, observe_target, record_access
from .metrics import Metrics
from .paths import ROOT, PathBuf
from .pivots import (
    Component,
    Pivot,
    PivotPool,
    ScanStats,
    build_pool,
    compute_overlap,
    find_best_pivot,
    pool_footprint_bytes,
    verify_pool,
)
from .tree import DIR, FILE, Credential, Dentry, DirTree
from .workload import (
    SIX_LEVEL_PRESET,
    STRATEGIES,
    ReplayResult,
    SoakReport,
    TraceEvent,
    TreeSpec,
    bench_depth_grid,
    equivalence_run,
    gen_tree,
    make_resolver,
    parse_metrics_csv,
    read_trace,
    replay,
    report,
    run_soak,
    synth_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Admission",
    "AlreadyExists",
    "CandidateSet",
    "Component",
    "ConfigError",
    "ContractViolation",
    "Credential",
    "Dentry",
    "DirTree",
    "DIR",
    "EngineError",
    "FILE",
    "FullPathCache",
    "HeatEpoch",
    "InvalidPath",
    "MetadataView",
    "Metrics",
    "NotADirectory",
    "NotFound",
    "OriginalLookup",
    "SIX_LEVEL_PRESET",
    "PathBuf",
    "PermissionDenied",
    "Pivot",
    "PivotManager",
    "PivotPool",
    "ReclaimQueue",
    "ReplayResult",
    "ROOT",
    "ScanStats",
    "SoakReport",
    "SpecInvalid",
    "StageLookupEngine",
    "StageResult",
    "STRATEGIES",
    "TraceEvent",
    "TraceMalformed",
    "TreeSpec",
    "Unsupported",
    "bench_depth_grid",
    "build_pool",
    "compute_overlap",
    "equivalence_run",
    "find_best_pivot",
    "gen_tree",
    "make_resolver",
    "observe_target",
    "parse_metrics_csv",
    "pool_footprint_bytes",
    "read_trace",
    "record_access",
    "replay",
    "report",
    "run_soak",
    "synth_trace",
    "verify_pool",
    "write_trace",
]
