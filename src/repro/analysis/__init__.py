"""Static analysis for searchable artifacts and for the repo itself.

Two halves:

- the **domain verifier** (:mod:`repro.analysis.verifier`): rule-based
  static checks over model specs, compression plans, fixed/tree runtime
  plans and whole model trees, producing structured
  :class:`~repro.analysis.diagnostics.Diagnostic` findings without
  executing anything. Wired into ``SearchContext`` (debug mode), the
  ``repro.search.serialize`` load paths (always) and runtime plan
  admission, plus ``python -m repro.analysis artifact.json``;
- **flowcheck** (:mod:`repro.analysis.flowcheck`): a multi-pass static
  analyzer over the repo's own source that guards the invariants the
  paper's numbers rest on — seeded RNG discipline, unit-consistent latency
  arithmetic (ms/s, bytes/bits, Mbps), worker safety for the parallel
  pool, and exception-safe spans, sinks and circuit breakers. One
  uncached pass: ``python -m repro.analysis --flow`` or ``make flowcheck``
  (also part of ``make lint``).
"""

from .artifact import detect_kind, verify_artifact
from .diagnostics import (
    Diagnostic,
    Severity,
    VerificationError,
    errors_of,
    format_report,
    has_errors,
    raise_on_error,
)
from .verifier import (
    verify_bandwidth_types,
    verify_branch_plan,
    verify_candidate,
    verify_compression_plan,
    verify_fixed_plan,
    verify_memo_keys,
    verify_model_spec,
    verify_partition_point,
    verify_split,
    verify_tree,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "VerificationError",
    "errors_of",
    "format_report",
    "has_errors",
    "raise_on_error",
    "detect_kind",
    "verify_artifact",
    "verify_bandwidth_types",
    "verify_branch_plan",
    "verify_candidate",
    "verify_compression_plan",
    "verify_fixed_plan",
    "verify_memo_keys",
    "verify_model_spec",
    "verify_partition_point",
    "verify_split",
    "verify_tree",
]
