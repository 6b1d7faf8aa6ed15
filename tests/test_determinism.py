"""Reports, and the partition work behind them, do not depend on the hash seed.

The mining walk, the counterexamples the validator keeps, the sampling
tree and the oracle's preserved tagging all iterate sets and dicts of names
and join values. Each report here, of every strategy, is made in a fresh
interpreter under three hash seeds, and everything it serializes except
the timings must come out the same, counters included. A partition is
refined from the smallest cached parent, so the order in which partitions
are first requested decides how many `refine` builds and how many rows it
reads: both counts must come out the same too. The inner pair dangles rows
on both sides, so upstaging tests each side's mined dependencies on the
input, and on each side some fail there and are upstaged. So must the
output of the single-table searches run directly on a wide join, and the
number of partitions they build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import json
from joinfd import discovery
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import JoinKind, JoinSpec, join
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv

left = loads_csv(
    "k0,k1,a0,a1\\nx,y,p,∅\\nx,y,q,u\\ny,∅,p,u\\n∅,x,q,v\\nz,z,∅,v\\ny,∅,r,u\\nw,x,p,v",
    name="L", null_tokens=["∅"],
)
right = loads_csv(
    "k0,k1,b0,b1\\nx,y,s,m\\ny,∅,s,∅\\ny,∅,t,n\\n∅,x,t,m\\nv,v,s,n\\nx,y,∅,n",
    name="R", null_tokens=["∅"],
)
pairs = [
    (left, right, JoinSpec.natural_join(left, right, JoinKind.FULL_OUTER)),
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
exact, afds = discovery.discover_fds(joined, 0.1)
out.append([str(d) for d in exact] + [str(a.fd) for a in afds])
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
    # every pair mines something, so the walk order is exercised
    *docs, rows_read, built, searched, new, searches_built = runs[0]
    assert [doc["strategy"] for doc in docs[:3]] == ["selective", "sampling", "oracle"]
    assert all(doc["counters"]["candidates_validated"] > 0 for doc in docs[::3])
    assert rows_read > 0 and built > 0
    assert searched and new and searches_built > 0
    assert runs[0] == runs[1] == runs[2]
