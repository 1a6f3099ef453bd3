"""Record-store substrate (§8.1 "Integration with higher level abstractions").

The paper's file is "essentially a sequence of records ... a record is not
split across nodes"; the optimizer's real-valued fractions must be rounded
to record boundaries, accesses find their record through a directory, and
the §8.1 discussion of predicate locks, the cross-node deadlock scenario,
and two-phase atomic commit is made executable here:

* :mod:`records` / :mod:`fragments` — the file as records, fragmented at
  record boundaries by largest-remainder rounding of the optimizer's
  fractions;
* :mod:`directory` — record -> node lookup ("some table look-up
  (directory) procedure", §4);
* :mod:`store` — per-node in-memory record stores with query/update ops;
* :mod:`locks` — a lock manager with shared/exclusive record locks and
  predicate (range) locks, with wait-for-graph deadlock detection;
* :mod:`transactions` — two-phase-commit coordination of multi-fragment
  transactions, including a reconstruction of the §8.1 deadlock scenario
  in the tests.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "directory": ["Directory"],
    "fragments": ["fragment_allocation", "largest_remainder_counts"],
    "locks": ["LockManager", "LockMode"],
    "records": ["File", "Record"],
    "replicated": ["ReplicatedCluster"],
    "store": ["NodeStore", "StorageCluster"],
    "transactions": ["Transaction", "TransactionManager", "TransactionStatus"],
})
