"""Reports, and the partition work behind them, do not depend on the hash seed.

The mining walk, the counterexamples the validator keeps, the sampling
tree and the oracle's preserved tagging all iterate sets and dicts of names
and join values. Each report here, of every strategy, is made in a fresh
interpreter under three hash seeds, and everything it serializes except
the timings must come out the same, counters included. A partition is
refined from the smallest cached parent, so the order in which partitions
are first requested decides how many `refine` builds and how many rows it
reads: both counts must come out the same too. A right outer join and a
left semi-join on composite keys with nulls check the order of the
right-dangling join values and the semi-join path. The inner pair dangles rows
on both sides, so upstaging tests each side's mined dependencies on the
input, and on each side some fail there and are upstaged. The last inner
pair's dangling join values carry several rows each, so a member whose lhs
holds the join key is tested within each dropped value's rows; on each side
some hold there and some do not. So must the output of the single-table searches run directly on a wide join, and the
number of partitions they build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import json
import random
from joinfd import discovery
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import JoinKind, JoinSpec, join
from joinfd.pipeline import run_pipeline
from joinfd.relation import Instance, loads_csv

left = loads_csv(
    "k0,k1,a0,a1\\nx,y,p,∅\\nx,y,q,u\\ny,∅,p,u\\n∅,x,q,v\\nz,z,∅,v\\ny,∅,r,u\\nw,x,p,v",
    name="L", null_tokens=["∅"],
)
right = loads_csv(
    "k0,k1,b0,b1\\nx,y,s,m\\ny,∅,s,∅\\ny,∅,t,n\\n∅,x,t,m\\nv,v,s,n\\nx,y,∅,n",
    name="R", null_tokens=["∅"],
)
# several right join values without a partner, composite and null-bearing
dangling = loads_csv(
    "k0,k1,b0,b1\\nx,y,s,m\\nu,∅,s,∅\\n∅,∅,t,n\\n∅,x,t,m\\nv,v,s,n\\nu,∅,∅,n\\n∅,u,t,m",
    name="R", null_tokens=["∅"],
)
on = ("k0", "k1")
pairs = [
    (left, right, JoinSpec.natural_join(left, right, JoinKind.FULL_OUTER)),
    (left, dangling, JoinSpec(JoinKind.RIGHT_OUTER, on, on)),
    (left, dangling, JoinSpec(JoinKind.LEFT_SEMI, on, on)),
    make_fixture(
        FixtureProfile(
            left_rows=24, right_rows=24, left_attrs=4, right_attrs=4,
            dangling_fraction=0.3, duplicate_fraction=0.3, domain_low=3,
            domain_high=12, op=JoinKind.LEFT_OUTER,
        ),
        seed=5,
    ),
    make_fixture(
        FixtureProfile(
            left_rows=24, right_rows=24, left_attrs=4, right_attrs=4,
            dangling_fraction=0.3, duplicate_fraction=0.3, domain_low=3,
            domain_high=12, op=JoinKind.INNER,
        ),
        seed=10,
    ),
]
rng = random.Random(34)

def side(name, keys):
    rng.shuffle(keys)
    rows = [(k, *(f"v{rng.randrange(d)}" for d in (2, 3, 5))) for k in keys]
    return Instance.from_rows(["k", *(f"{name.lower()}{i}" for i in range(3))], rows, name=name)

shared = [f"s{i % 5}" for i in range(12)]
pairs.append((
    side("L", shared + [f"dl{i % 3}" for i in range(7)]),
    side("R", shared[:11] + [f"dr{i % 3}" for i in range(7)]),
    JoinSpec.equi(["k"], ["k"]),
))
read = [0]
built = [0]
refine = discovery.refine

def counted(part, instance, attr):
    read[0] += part.size
    built[0] += 1
    return refine(part, instance, attr)

discovery.refine = counted
out = []
for pair in pairs:
    for strategy in ("selective", "sampling", "oracle"):
        doc = run_pipeline(*pair, strategy=strategy).to_json()
        del doc["timings"]
        out.append(doc)
out.append(read[0])
out.append(built[0])
wide = make_fixture(
    FixtureProfile(
        left_rows=40, right_rows=40, left_attrs=6, right_attrs=4,
        dangling_fraction=0.3, duplicate_fraction=0.3, domain_low=2,
        domain_high=2,
    ),
    seed=5,
)
joined = join(*wide)
built[0] = 0
out.append([str(d) for d in discovery.discover_fds(joined)])
out.append([str(d) for d in discovery.discover_new_fds(joined)])
out.append(built[0])
print(json.dumps(out))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        runs.append(json.loads(done.stdout))
    # every pair but the semi-join mines something, so the walk order is
    # exercised
    *docs, rows_read, built, searched, new, searches_built = runs[0]
    assert [doc["strategy"] for doc in docs[:3]] == ["selective", "sampling", "oracle"]
    assert [doc["operator"] for doc in docs[3:9:3]] == ["router", "lsemi"]
    assert all(
        doc["counters"]["candidates_validated"] > 0
        for doc in docs[::3]
        if doc["operator"] != "lsemi"
    )
    assert rows_read > 0 and built > 0
    # the last pair keeps and upstages members whose lhs holds the join key
    tags = {
        (name, doc["origin"])
        for doc in docs[-3]["fds"]
        for name in doc["lhs"]
        if name.endswith(".k")
    }
    assert {("L.k", "preserved-left"), ("L.k", "upstaged-left")} <= tags
    assert {("R.k", "preserved-right"), ("R.k", "upstaged-right")} <= tags
    assert searched and new and searches_built > 0
    assert runs[0] == runs[1] == runs[2]
