import random
from collections import Counter

import pytest

from joinfd.discovery import discover_fds, holds
from joinfd.errors import JoinSpecError
from joinfd.joins import (
    PADS_LEFT_ATTRS,
    PADS_RIGHT_ATTRS,
    JoinKind,
    JoinSpec,
    SEMI_KINDS,
    join,
    join_attr_directions,
    join_profile,
    name_maps,
    partial_join,
    result_schema,
)
from joinfd.fds import closure_equal, implies
from joinfd.oracle import oracle_join_fds
from joinfd.pipeline import run_left_deep
from joinfd.relation import Instance, loads_csv, project, take_rows

from conftest import random_instance, reference_join


def _pair(rng, dangling=True):
    left = random_instance(rng, n_attrs=rng.randint(2, 3), n_rows=rng.randint(3, 12))
    right = random_instance(rng, n_attrs=rng.randint(2, 3), n_rows=rng.randint(3, 12))
    left = loads_csv(
        "k," + ",".join(f"a{i}" for i in range(len(left.attr_names))) + "\n"
        + "\n".join(
            f"j{rng.randint(0, 6 if dangling else 3)},"
            + ",".join(r)
            for r in (tuple(row) for row in left.raw_rows())
        ),
        name="L",
    )
    right = loads_csv(
        "k," + ",".join(f"b{i}" for i in range(len(right.attr_names))) + "\n"
        + "\n".join(
            f"j{rng.randint(0, 3)}," + ",".join(r)
            for r in (tuple(row) for row in right.raw_rows())
        ),
        name="R",
    )
    return left, right


def test_proof_tables_inner_join_rows(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    joined = join(left, right, spec)
    assert joined.row_count == 6
    printed = [
        ("0", "0", "0", "0"),
        ("1", "0", "0", "0"),
        ("1", "0", "1", "1"),
        ("1", "1", "0", "0"),
        ("1", "1", "1", "1"),
        ("2", "2", "1", "0"),
    ]
    got = [
        tuple(row[i] for i in (0, 1, 3, 4)) for row in joined.raw_rows()
    ]  # X, A, B, C
    assert got == printed
    # the equi-join keeps both key columns, pairwise equal
    assert all(row[0] == row[2] for row in joined.raw_rows())


def test_disjoint_values_inner_empty_full_outer_padded():
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n3,p\n4,q", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.INNER)
    assert join(left, right, spec).row_count == 0
    full = join(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.FULL_OUTER))
    assert full.row_count == 4
    rows = full.raw_rows()
    assert rows[0] == ("1", "x", None, None)
    assert rows[-1] == (None, None, "4", "q")


def test_left_outer_pads_single_dangling_row():
    left = loads_csv("k,a\n1,x\n9,z", name="L")
    right = loads_csv("k,b\n1,p", name="R")
    got = join(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER))
    assert got.raw_rows() == [("1", "x", "1", "p"), ("9", "z", None, None)]


def test_semi_join_equation():
    rng = random.Random(31)
    for _ in range(25):
        left, right = _pair(rng)
        spec_inner = JoinSpec.equi(["k"], ["k"], JoinKind.INNER)
        spec_semi = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_SEMI)
        semi = join(left, right, spec_semi)
        inner = join(left, right, spec_inner)
        projected = project(inner, [f"L.{a}" for a in left.attr_names])
        expected = list(dict.fromkeys(projected.raw_rows()))
        assert semi.raw_rows() == expected


def test_full_outer_is_union_of_one_sided_outers():
    rng = random.Random(32)
    for _ in range(25):
        left, right = _pair(rng)
        on = JoinSpec.equi(["k"], ["k"], JoinKind.FULL_OUTER)
        lo = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER)
        ro = JoinSpec.equi(["k"], ["k"], JoinKind.RIGHT_OUTER)
        full = Counter(join(left, right, on).raw_rows())
        lo_rows = Counter(join(left, right, lo).raw_rows())
        ro_rows = Counter(join(left, right, ro).raw_rows())
        union = lo_rows | ro_rows  # shared inner rows appear in both
        assert full == union


def test_inner_size_is_multiplicity_product():
    rng = random.Random(33)
    for _ in range(25):
        left, right = _pair(rng)
        spec = JoinSpec.equi(["k"], ["k"], JoinKind.INNER)
        profile = join_profile(left, right, spec)
        assert join(left, right, spec).row_count == profile.inner_rows


def test_every_single_table_fd_survives_the_join():
    rng = random.Random(34)
    for trial in range(36):
        left, right = _pair(rng)
        kind = list(JoinKind)[trial % 6]
        spec = JoinSpec.equi(["k"], ["k"], kind)
        joined = join(left, right, spec)
        lmap, rmap = name_maps(left, right, spec)
        for inst, mapping, skip in (
            (left, lmap, kind is JoinKind.RIGHT_SEMI),
            (right, rmap, kind is JoinKind.LEFT_SEMI),
        ):
            if skip:
                continue
            exact = discover_fds(inst)
            for d in exact:
                if not d.lhs:
                    continue  # padding can break constant columns
                assert holds(joined, d.rename(mapping))


def test_natural_join_merges_columns():
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n1,p\n3,q", name="R")
    spec = JoinSpec.natural_join(left, right, JoinKind.FULL_OUTER)
    got = join(left, right, spec)
    assert got.attr_names == ("L.k", "L.a", "R.b")
    # the merged key takes the surviving side's value on padded rows
    assert ("3", None, "q") in got.raw_rows()


def test_natural_join_without_common_names_rejected():
    left = loads_csv("a\n1", name="L")
    right = loads_csv("b\n1", name="R")
    with pytest.raises(JoinSpecError):
        JoinSpec.natural_join(left, right)


def test_mismatched_attribute_lists_rejected():
    with pytest.raises(JoinSpecError):
        JoinSpec.equi(["a", "b"], ["c"])


def test_unknown_join_attribute_rejected():
    left = loads_csv("a\n1", name="L")
    right = loads_csv("b\n1", name="R")
    with pytest.raises(Exception):
        join(left, right, JoinSpec.equi(["nope"], ["b"]))


def test_partial_join_keeping_everything_equals_join():
    rng = random.Random(35)
    for _ in range(15):
        left, right = _pair(rng)
        spec = JoinSpec.equi(["k"], ["k"], JoinKind.INNER)
        full = join(left, right, spec)
        part = partial_join(
            left, right, spec, left.attr_names, right.attr_names
        )
        assert part.raw_rows() == full.raw_rows()


def test_partial_join_matches_project_of_join():
    rng = random.Random(36)
    for trial in range(30):
        left, right = _pair(rng)
        kind = list(JoinKind)[trial % 2 and 0 or trial % 6]
        if kind in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI):
            kind = JoinKind.INNER
        spec = JoinSpec.equi(["k"], ["k"], kind)
        keep_left = ["k"] + list(left.attr_names[1:2])
        keep_right = ["k"]
        part = partial_join(left, right, spec, keep_left, keep_right)
        oracle = project(
            join(left, right, spec),
            [f"L.{a}" for a in keep_left] + [f"R.{a}" for a in keep_right],
        )
        assert Counter(part.raw_rows()) == Counter(oracle.raw_rows())


def test_partial_join_requires_join_attributes():
    left = loads_csv("k,a\n1,x", name="L")
    right = loads_csv("k,b\n1,p", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    with pytest.raises(JoinSpecError, match="join attributes"):
        partial_join(left, right, spec, ["a"], ["k"])


def test_partial_join_on_proof_tables(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    part = partial_join(left, right, spec, ["X", "A"], ["Y", "C"])
    oracle = project(join(left, right, spec), ["L.X", "L.A", "R.Y", "R.C"])
    assert part.row_count == 6
    assert Counter(part.raw_rows()) == Counter(oracle.raw_rows())


def test_join_attr_directions_on_outer_ops():
    left = loads_csv("k,a\n1,x\n2,y\n3,z", name="L")
    right = loads_csv("k,b\n1,p", name="R")
    lo = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER)
    x_to_y, y_to_x = join_attr_directions(lo, join_profile(left, right, lo))
    assert x_to_y  # every left key maps to one right key or the null
    assert not y_to_x  # two dangling left keys share the null right key


def _tiny_side(rng, name, keys, prefix):
    """0-9 rows over `keys` and up to two more attributes; values include
    the null and the text "None". Half the time the side keeps at most 6 of
    its rows as a row selection, whose dictionaries keep unused words."""
    attrs = keys + [f"{prefix}{i}" for i in range(rng.randint(0, 2))]
    domain = ["x", "y", "None", None]
    rows = [[rng.choice(domain) for _ in attrs] for _ in range(rng.randint(0, 9))]
    side = Instance.from_rows(attrs, rows, name=name)
    if rng.random() < 0.5:
        kept = sorted(rng.sample(range(side.row_count), min(side.row_count, 6)))
        side = take_rows(side, kept)
    return side


def _tiny_pair(rng, index):
    keys = [f"k{i}" for i in range(rng.randint(1, 2))]
    left = _tiny_side(rng, "L", keys, "a")
    right = _tiny_side(rng, "R", keys, "b")
    kind = list(JoinKind)[index % 6]
    return left, right, JoinSpec(kind, tuple(keys), tuple(keys), rng.random() < 0.5)


@pytest.mark.parametrize("natural", [False, True], ids=["equi", "natural"])
@pytest.mark.parametrize("kind", list(JoinKind), ids=lambda k: k.value)
def test_join_names_written_out(kind, natural):
    left = loads_csv("k1,k2,a\n1,2,x", name="L")
    right = loads_csv("k2,b,k1\n2,y,1", name="R")
    spec = JoinSpec(kind, ("k1", "k2"), ("k1", "k2"), natural)
    lmap, rmap = name_maps(left, right, spec)
    if kind is JoinKind.LEFT_SEMI:
        want_l, want_r, want = ("k1", "k2", "a"), ("k2", "b", "k1"), ["k1", "k2", "a"]
    elif kind is JoinKind.RIGHT_SEMI:
        want_l, want_r, want = ("k1", "k2", "a"), ("k2", "b", "k1"), ["k2", "b", "k1"]
    elif natural:
        want_l, want_r = ("L.k1", "L.k2", "L.a"), ("L.k2", "R.b", "L.k1")
        want = ["L.k1", "L.k2", "L.a", "R.b"]
    else:
        want_l, want_r = ("L.k1", "L.k2", "L.a"), ("R.k2", "R.b", "R.k1")
        want = ["L.k1", "L.k2", "L.a", "R.k2", "R.b", "R.k1"]
    assert lmap == dict(zip(left.attr_names, want_l))
    assert rmap == dict(zip(right.attr_names, want_r))
    assert result_schema(left, right, spec) == want
    assert join(left, right, spec).attr_names == tuple(want)


@pytest.mark.parametrize("natural", [False, True], ids=["equi", "natural"])
@pytest.mark.parametrize("kind", list(JoinKind), ids=lambda k: k.value)
def test_tables_sharing_a_name_join_only_under_a_semi_join(kind, natural):
    left = loads_csv("k,a\n1,x", name="t")
    right = loads_csv("k,a\n1,y", name="t")
    spec = JoinSpec(kind, ("k",), ("k",), natural)
    if kind in SEMI_KINDS:
        kept = left if kind is JoinKind.LEFT_SEMI else right
        assert result_schema(left, right, spec) == ["k", "a"]
        assert join(left, right, spec).raw_rows() == kept.raw_rows()
        return
    dupes = r"\['t.a'\]" if natural else r"\['t.a', 't.k'\]"
    for call in (name_maps, result_schema, join):
        with pytest.raises(JoinSpecError, match=f"would duplicate attribute names: {dupes}"):
            call(left, right, spec)


def test_result_schema_names_the_join_it_describes():
    rng = random.Random(36)
    for index in range(120):
        left, right, spec = _tiny_pair(rng, index)
        assert result_schema(left, right, spec) == list(join(left, right, spec).attr_names)


def test_join_matches_the_decoding_reference_row_for_row():
    rng = random.Random(37)
    for index in range(360):
        left, right, spec = _tiny_pair(rng, index)
        got, want = join(left, right, spec), reference_join(left, right, spec)
        assert got.attr_names == want.attr_names, spec
        assert got.name == want.name
        assert got.raw_rows() == want.raw_rows(), spec


def test_join_reads_the_groups_of_a_given_profile():
    rng = random.Random(38)
    for index in range(120):
        left, right, spec = _tiny_pair(rng, index)
        profile = join_profile(left, right, spec)
        assert join(left, right, spec, profile) == join(left, right, spec), spec


def _join_of_copies(left, right, spec, profile, shared):
    """The join of copies of each side's rows that carry an id of `shared`
    or that the operator keeps dangling, the copies profiled again."""
    kept = [False] * len(profile.keys)
    for g in shared:
        kept[g] = True
    left_kept, right_kept = kept[:], kept
    if spec.kind in PADS_RIGHT_ATTRS:
        for g in profile.dangling_left:
            left_kept[g] = True
    if spec.kind in PADS_LEFT_ATTRS:
        for g in profile.dangling_right:
            right_kept[g] = True
    li = take_rows(left, [r for r, g in enumerate(profile.left_ids) if left_kept[g]])
    ri = take_rows(right, [r for r, g in enumerate(profile.right_ids) if right_kept[g]])
    return join(li, ri, spec)


def test_join_of_picked_shared_ids_equals_the_join_of_their_rows():
    rng = random.Random(39)
    for index in range(600):
        left, right, spec = _tiny_pair(rng, index)
        profile = join_profile(left, right, spec)
        n_shared = profile.n_shared
        shared = rng.sample(range(n_shared), rng.randint(0, n_shared))
        got = join(left, right, spec, profile, shared)
        # names, schema, columns, dictionaries and row order
        assert got == _join_of_copies(left, right, spec, profile, shared), spec


def test_left_deep_chain_over_a_code_level_intermediate():
    rng = random.Random(38)
    for index in range(60):
        a, b, first = _tiny_pair(rng, index)
        # the third table joins the intermediate's first key column, whose
        # natural merged dictionary may have grown on padding rows
        key = "L." + first.left_on[0]
        rows = [[rng.choice(["x", "None", None]), rng.choice("pq")] for _ in range(4)]
        c = Instance.from_rows([key, "c0"], rows, name="T")
        if first.kind in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI):
            continue
        kind = list(JoinKind)[rng.randrange(6)]
        second = JoinSpec(kind, (key,), (key,), rng.random() < 0.5)
        middle, want_middle = join(a, b, first), reference_join(a, b, first)
        assert middle.raw_rows() == want_middle.raw_rows()
        got = join(middle, c, second)
        assert got.raw_rows() == reference_join(want_middle, c, second).raw_rows()
        if kind in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI):
            continue
        want = oracle_join_fds(want_middle, c, second)
        report = run_left_deep([a, b, c], [first, second], strategy="selective")
        assert closure_equal(report.fds, want), (first, second)
        sampled = run_left_deep([a, b, c], [first, second], strategy="sampling")
        assert all(implies(sampled.fds, d) for d in want), (first, second)


def _decoded_keys(instance, attrs):
    """Each row's join value over `attrs`, decoded cell by cell."""
    ords = [instance.ordinal(a) for a in attrs]
    return [
        tuple(instance.decode(o, instance.columns[o][r]) for o in ords)
        for r in range(instance.row_count)
    ]


@pytest.mark.parametrize("attrs", [("k1", "k2"), ("k2",), ("k2", "a", "k1")])
def test_value_groups_decode_like_each_row(attrs):
    # a null and the text "None" are different join values, in a composite
    # key as in a single one
    inst = Instance.from_rows(
        ["k1", "k2", "a"],
        [
            ["None", None, "x"],
            [None, "None", "y"],
            ["1", None, "x"],
            [None, None, "y"],
            ["None", None, "z"],
            [None, "None", "x"],
            ["1", "2", None],
        ],
        name="T",
    )
    spec = JoinSpec.equi(attrs, attrs)
    profile = join_profile(inst, inst, spec)
    keys = _decoded_keys(inst, attrs)
    assert [profile.values[g] for g in profile.left_ids] == keys
    # values in order of their first row
    assert profile.values == list(dict.fromkeys(keys))
    assert profile.left_counts == [keys.count(v) for v in profile.values]
    empty = take_rows(inst, [])
    assert join_profile(empty, empty, spec).values == []


def test_profile_ids_match_set_algebra_on_decoded_keys():
    rng = random.Random(39)
    for index in range(360):
        left, right, spec = _tiny_pair(rng, index)
        profile = join_profile(left, right, spec)
        keys = {}
        sides = (("left", left, spec.left_on), ("right", right, spec.right_on))
        for side, inst, on in sides:
            rows = _decoded_keys(inst, on)
            # every row's id decodes to its key, and counts are row counts
            assert [profile.values[g] for g in profile.ids(side)] == rows, spec
            assert profile.counts(side) == [rows.count(v) for v in profile.values]
            keys[side] = list(dict.fromkeys(rows))  # in first-row order
        shared = [v for v in keys["left"] if v in keys["right"]]
        values = profile.values
        # shared ids in left first-row order, then each side's dangling ones
        assert values[: profile.n_shared] == shared, spec
        assert values[profile.n_shared : profile.n_left] == [
            v for v in keys["left"] if v not in keys["right"]
        ]
        assert values[profile.n_left :] == [
            v for v in keys["right"] if v not in keys["left"]
        ]
        for kind in JoinKind:
            if kind not in SEMI_KINDS:
                other = JoinSpec(kind, spec.left_on, spec.right_on, spec.natural)
                assert profile.rows_for(kind) == join(left, right, other).row_count
