"""Sharding a sample matrix across workers, bit-stably.

A :class:`ShardPlan` partitions the M sample rows into contiguous
per-worker shards whose boundaries are multiples of the engine's fixed
inner-GEMM row unit (:func:`repro.core.engine.unit_rows_for_tile`).
Because the streaming engine always issues GEMMs on that unit grid —
globally aligned from row 0 — a worker running the engine over its shard
executes the *identical* sequence of GEMM calls the single-worker engine
would execute over the same rows.  Per-row quantities (labels, min
squared distances, sample norms) are therefore bit-identical for any
shard count, which is the foundation of the ``repro.dist`` determinism
contract (see ``docs/distributed.md``).

Shards are balanced in whole units: with U total units and W workers,
each worker receives ``U // W`` units and the first ``U % W`` workers one
extra.  When there are fewer units than requested workers, the plan
clamps to one shard per unit (the effective worker count the coordinator
then uses).

**Elastic membership.**  :meth:`ShardPlan.replan` re-partitions the same
``[0, m)`` rows onto an arbitrary member set — the surviving workers
after a loss, or a grown set when replacements spawn.  The re-plan keeps
the two invariants the merge depends on: boundaries stay on the same
unit grid, and shards stay in ascending row order (members sorted by
id), so the coordinator's sequential-continuation merge over the new
shards carries exactly the same bits as before the membership change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.arrays import ceil_div

__all__ = ["Shard", "ShardPlan"]


def _partition(m: int, unit_rows: int, worker_ids) -> tuple["Shard", ...]:
    """Balanced unit-aligned shards over ``[0, m)``, one per worker id,
    assigned in the given id order (ascending row ranges)."""
    ids = list(worker_ids)
    n_units = ceil_div(m, unit_rows)
    eff = min(len(ids), n_units)
    base, extra = divmod(n_units, eff)
    shards = []
    lo = 0
    for i in range(eff):
        units = base + (1 if i < extra else 0)
        hi = min(lo + units * unit_rows, m)
        shards.append(Shard(worker_id=ids[i], lo=lo, hi=hi))
        lo = hi
    assert lo == m, "shard plan does not cover all rows"
    return tuple(shards)


@dataclass(frozen=True)
class Shard:
    """One worker's contiguous row range ``[lo, hi)``."""

    worker_id: int
    lo: int
    hi: int

    @property
    def rows(self) -> int:
        return self.hi - self.lo

    @property
    def slice(self) -> slice:
        return slice(self.lo, self.hi)


@dataclass(frozen=True)
class ShardPlan:
    """Unit-aligned partition of ``m`` sample rows across workers."""

    m: int
    unit_rows: int
    shards: tuple[Shard, ...]

    @classmethod
    def build(cls, m: int, n_workers: int, unit_rows: int) -> "ShardPlan":
        """Partition ``[0, m)`` into at most ``n_workers`` aligned shards.

        Parameters
        ----------
        m : int
            Total sample rows (>= 1).
        n_workers : int
            Requested worker count (>= 1); clamped to the number of
            whole GEMM units so every shard is non-empty.
        unit_rows : int
            The engine's fixed inner-GEMM row unit for the fit's tile
            geometry.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if unit_rows < 1:
            raise ValueError(f"unit_rows must be >= 1, got {unit_rows}")
        return cls(m=m, unit_rows=unit_rows,
                   shards=_partition(m, unit_rows, range(n_workers)))

    def replan(self, member_ids) -> "ShardPlan":
        """The same rows, re-balanced onto ``member_ids`` (elastic).

        Used by the coordinator to shrink onto the survivors after a
        worker loss — or to re-expand when replacements spawn.  Members
        are sorted by id and assigned shards in row order, boundaries
        stay on the original unit grid, and the member count clamps to
        the unit count exactly like :meth:`build`; the merge order (and
        therefore every merged bit) is unchanged by any membership
        history.
        """
        members = sorted({int(w) for w in member_ids})
        if not members:
            raise ValueError("replan needs at least one member")
        return ShardPlan(m=self.m, unit_rows=self.unit_rows,
                         shards=_partition(self.m, self.unit_rows, members))

    def shard_of(self, worker_id: int) -> Shard:
        """The shard owned by ``worker_id`` (ids are sparse after a
        re-plan, so positional indexing does not apply)."""
        for shard in self.shards:
            if shard.worker_id == worker_id:
                return shard
        raise KeyError(f"worker {worker_id} owns no shard in this plan")

    @property
    def n_workers(self) -> int:
        """Effective worker count (after the unit clamp)."""
        return len(self.shards)

    @property
    def worker_ids(self) -> tuple[int, ...]:
        return tuple(s.worker_id for s in self.shards)

    def shard_sizes(self) -> tuple[int, ...]:
        return tuple(s.rows for s in self.shards)
