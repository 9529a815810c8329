"""The three serving workloads: topology, views, rate and inputs.

Each workload is built entirely from the seed before any timing starts;
the servers only ever see the generated batches.  Open-loop rates are
fixed here, well under the capacity measured on the first baseline, so
a later speed-up shows as lower latency rather than as a different
offered load (the rates are also stated in BENCHMARK.json).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ring import GMR
from repro.workloads import (
    MICRO_TABLES,
    TPCH_QUERIES,
    TPCH_TABLES,
    as_query_spec,
    stream_batches_with_deletions,
)

#: the catalog ``python -m repro serve``/``route`` parse SQL against
CATALOG = {**TPCH_TABLES, **MICRO_TABLES}

DELETE_FRACTION = 0.2


@dataclass
class Workload:
    name: str
    #: ``"serve"``: one server; ``"router"``: ``route`` over shards
    topology: str
    #: view name -> SQL text, or a workload query name (``"Q6"``)
    views: dict[str, str]
    #: the view the subscriber watches
    watched: str
    #: open-loop rate, batches per second
    rate: float
    #: rows per batch
    batch_rows: int
    #: closed-loop batches per second of the first baseline: sizes the
    #: fixed amount of work the capacity phase times
    cap_rate: float
    #: extra ``serve`` arguments (single server, or every shard)
    serve_args: list[str] = field(default_factory=list)
    #: extra ``route`` arguments
    route_args: list[str] = field(default_factory=list)
    n_shards: int = 0
    #: the server keeps a write-ahead log (one temp dir per server)
    durable: bool = False
    generate: object = None

    def specs(self) -> dict:
        """View name -> QuerySpec, as the server parses them."""
        out = {}
        for name, source in self.views.items():
            if source in TPCH_QUERIES:
                out[name] = TPCH_QUERIES[source]
            else:
                out[name] = as_query_spec(source, name=name, catalog=CATALOG)
        return out

    def batches(self, seed: int, n: int) -> list[tuple[str, GMR]]:
        """The first ``n`` batches of this workload's stream."""
        out = []
        for item in self.generate(seed, n, self.batch_rows):
            out.append(item)
            if len(out) >= n:
                break
        if len(out) < n:
            raise RuntimeError(
                f"{self.name}: generator yielded {len(out)} of {n} batches"
            )
        return out


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------
def _lineitem_stream(seed: int, n: int, rows: int):
    """LINEITEM rows in the shape of ``repro.workloads.generate_tpch``
    (vectorised: the pure-Python generator would spend seconds per run
    on the rows this workload streams), with ~20% deletions."""
    import numpy as np

    # Each batch inserts ~(1 - DELETE_FRACTION) * rows fresh rows.
    n_rows = int(n * rows * (1.0 - DELETE_FRACTION) * 1.1) + rows
    rng = np.random.default_rng(seed)
    qty = rng.integers(1, 51, n_rows)
    cols = [
        rng.integers(0, 75_000, n_rows),       # orderkey
        rng.integers(0, 10_000, n_rows),       # partkey
        rng.integers(0, 500, n_rows),          # suppkey
        qty,
        qty * rng.integers(900, 2101, n_rows),  # extendedprice
        rng.integers(0, 11, n_rows),           # discount, percent
        rng.integers(0, 2555, n_rows),         # shipdate
        rng.integers(0, 3, n_rows),            # returnflag
        rng.integers(0, 2, n_rows),            # linestatus
        rng.integers(0, 7, n_rows),            # shipmode
    ]
    table = list(zip(*(c.tolist() for c in cols)))
    return stream_batches_with_deletions(
        {"LINEITEM": table}, rows, delete_fraction=DELETE_FRACTION,
        seed=seed,
    )


def _micro_stream(relations: tuple[str, ...], window: int,
                  key_domain: int):
    """Micro-table rows R(a, b), S(b, c), T(c, d) over a fixed join-key
    domain (``key_domain`` values, about one partner row per key),
    round-robin across ``relations``, in a sliding window.

    Until a relation holds ``window`` live rows ~20% of its events
    delete a random live row; from then on every insert first deletes
    one, so the state stays at ``window`` rows.  Join maintenance in
    this repo costs time proportional to the stored state (see the
    README), so a growing state would make every batch dearer than the
    last and tie the figures to the run length; a fixed-size state over
    fixed key domains keeps a batch's cost the same all run long.
    """

    def gen(seed: int, n: int, rows: int):
        rng = random.Random(seed)
        make = {
            "R": lambda: (rng.randrange(50), rng.randrange(key_domain)),
            "S": lambda: (rng.randrange(key_domain),
                          rng.randrange(key_domain)),
            "T": lambda: (rng.randrange(key_domain), rng.randrange(40)),
        }
        live = {r: [] for r in relations}
        pending = {r: (GMR(), [0]) for r in relations}

        def emit(r, t, m):
            buf, count = pending[r]
            buf.add_tuple(t, m)
            count[0] += 1
            if count[0] >= rows:
                pending[r] = (GMR(), [0])
                if not buf.is_zero():
                    yield r, buf

        while True:
            for r in relations:
                rows_r = live[r]
                if rows_r and (len(rows_r) >= window
                               or rng.random() < DELETE_FRACTION):
                    i = rng.randrange(len(rows_r))
                    rows_r[i], rows_r[-1] = rows_r[-1], rows_r[i]
                    yield from emit(r, rows_r.pop(), -1)
                t = make[r]()
                rows_r.append(t)
                yield from emit(r, t, +1)

    return gen


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
#: three R⋈S / S⋈T COUNT shapes; every view re-spells one of them with
#: its own aliases and operand order
_SHAPES = [
    "SELECT {x}.a, COUNT(*) FROM R {x}, S {y} "
    "WHERE {x}.b = {y}.b GROUP BY {x}.a",
    "SELECT {x}.b, COUNT(*) FROM S {y}, R {x} "
    "WHERE {x}.b = {y}.b GROUP BY {x}.b",
    "SELECT {y}.d, COUNT(*) FROM S {x}, T {y} "
    "WHERE {x}.c = {y}.c GROUP BY {y}.d",
]


def _shared_views(n: int = 40) -> dict[str, str]:
    views = {}
    for i in range(n):
        if i % 10 == 9:  # ~10% unique filter views
            views[f"v{i}"] = (
                f"SELECT a, COUNT(*) FROM R WHERE R.b > {i} GROUP BY a"
            )
        else:
            views[f"v{i}"] = _SHAPES[i % 3].format(x=f"x{i}", y=f"y{i}")
    return views


WORKLOADS: dict[str, Workload] = {}


def _add(w: Workload) -> None:
    WORKLOADS[w.name] = w


_add(Workload(
    name="wire-q6",
    topology="serve",
    views={"Q6": "Q6"},
    watched="Q6",
    rate=30.0,
    batch_rows=500,
    cap_rate=110.0,
    generate=_lineitem_stream,
))

_add(Workload(
    name="shared-views",
    topology="serve",
    views=_shared_views(),
    watched="v3",  # a re-spelling of shape 0: a pure consumer view
    rate=40.0,
    batch_rows=40,
    cap_rate=200.0,
    serve_args=["--workload", "micro"],
    generate=_micro_stream(("R", "S", "T"), window=300, key_domain=300),
))

_add(Workload(
    name="durable-router",
    topology="router",
    views={
        "rs_by_b": "SELECT R.b, COUNT(*) FROM R, S "
                   "WHERE R.b = S.b GROUP BY R.b",
        "rs_sum_c": "SELECT S.b, SUM(S.c) FROM S, R "
                    "WHERE R.b = S.b GROUP BY S.b",
        "rs_small_a": "SELECT R.b, COUNT(*) FROM R, S "
                      "WHERE R.b = S.b AND R.a < 25 GROUP BY R.b",
    },
    watched="rs_by_b",
    rate=15.0,
    batch_rows=100,
    cap_rate=100.0,
    serve_args=["--fsync", "off", "--checkpoint-every", "100"],
    route_args=["--backend", "rivm-batch"],
    n_shards=2,
    durable=True,
    generate=_micro_stream(("R", "S"), window=300, key_domain=300),
))
