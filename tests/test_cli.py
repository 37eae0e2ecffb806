import functools
import json
import os
import pickle
import warnings

import pytest

import drotree.cli as cli
import drotree.effectiveness as effectiveness
import drotree.solver as solver_module
from drotree.cli import dump_json, format_float, main
from drotree.errors import NumericalBreakdown, ParseError
from drotree.gen import gen_random
from drotree.solver import solve_benders, solve_extensive
from drotree.tree import load_instance, to_dict

from helpers import leaf_value_tree, steep_link_tree


def run(*argv):
    return main(list(argv))


def write_instance(tmp_path, tree, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(to_dict(tree)))
    return str(path)


def test_json_writer_basics():
    assert format_float(0.15) == "0.14999999999999999"
    assert dump_json({"b": 1, "a": [1.5, None, True]}) == (
        '{\n  "b": 1,\n  "a": [\n    1.5,\n    null,\n    true\n  ]\n}')
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_gen_solve_roundtrip(tmp_path):
    inst = str(tmp_path / "r.json")
    out = str(tmp_path / "sol.json")
    assert run("gen", "--random", "7,3,2", "--out", inst) == 0
    assert run("solve", inst, "--out", out) == 0
    blob = json.loads(open(out).read())
    tree = load_instance(inst)
    assert blob["objective"] == pytest.approx(solve_extensive(tree).objective)
    assert blob["solver"] == "extensive"
    assert list(blob["policy"]) == [n.id for n in tree.nodes]


def test_solve_both_cross_checks(tmp_path):
    inst = str(tmp_path / "r.json")
    out = str(tmp_path / "sol.json")
    run("gen", "--random", "3,3,3", "--out", inst)
    assert run("solve", inst, "--solver", "both", "--out", out) == 0
    blob = json.loads(open(out).read())
    assert blob["cross_check"]["rel_diff"] <= 1e-6
    assert blob["cross_check"]["benders_gap"] <= 1e-6


def test_benders_stopping_early_warns_once(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "r.json")
    run("gen", "--random", "3,3,3", "--out", inst)
    ok = str(tmp_path / "ok.json")
    assert run("solve", inst, "--solver", "benders", "--out", ok) == 0
    assert "warning" not in capsys.readouterr().err

    monkeypatch.setattr(cli, "solve_benders",
                        functools.partial(solve_benders, max_iter=1))
    for solver in ("benders", "both"):
        out = str(tmp_path / f"{solver}.json")
        assert run("solve", inst, "--solver", solver, "--out", out) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "after 1 passes" in warnings[0]
        blob = json.loads(open(out).read())
        gap = blob["gap"] if solver == "benders" else \
            blob["cross_check"]["benders_gap"]
        assert gap > 1e-6
    assert list(json.loads(open(str(tmp_path / "benders.json")).read())) \
        == list(json.loads(open(ok).read()))


def test_dump_lp_writes_file(tmp_path):
    inst = str(tmp_path / "r.json")
    lp = str(tmp_path / "r.lp")
    run("gen", "--random", "1,2,2", "--out", inst)
    assert run("solve", inst, "--dump-lp", lp, "--out",
               str(tmp_path / "s.json")) == 0
    text = open(lp).read()
    assert text.startswith("\\*") or "Minimize" in text


def test_classify_byte_identical_and_dot(tmp_path):
    inst = str(tmp_path / "r.json")
    run("gen", "--random", "5,3,2", "--out", inst)
    blobs = []
    for k in range(2):
        rep = str(tmp_path / f"rep{k}.json")
        dot = str(tmp_path / f"t{k}.dot")
        assert run("classify", inst, "--out", rep, "--dot", dot) == 0
        blobs.append(open(rep, "rb").read())
    assert blobs[0] == blobs[1]
    dot_text = open(str(tmp_path / "t0.dot")).read()
    assert dot_text.startswith("digraph")
    rep = json.loads(blobs[0])
    assert {"nodes", "leaves", "summary"} <= set(rep)


def test_classify_oracle_agreement(tmp_path):
    inst = str(tmp_path / "r.json")
    run("gen", "--random", "9,3,2", "--out", inst)
    rep = str(tmp_path / "rep.json")
    assert run("classify", inst, "--oracle", "--strict", "--out", rep) == 0
    blob = json.loads(open(rep).read())
    assert blob["oracle"]["n_disagreements"] == 0
    assert blob["oracle"]["n_checked"] > 0


def test_workers_label_the_instance_the_parent_read(tmp_path, monkeypatch,
                                                    pool_sizes):
    inst = tmp_path / "r.json"
    run("gen", "--random", "9,3,2", "--out", str(inst))
    cmd = ["sweep", str(inst), "--gamma", "0:1:0.25"]
    assert run(*cmd, "--jobs", "1", "--out", str(tmp_path / "a")) == 0

    def load_then_rewrite(path):
        tree = load_instance(path)
        inst.write_text(dump_json(to_dict(gen_random(10, 3, 2))))
        return tree

    monkeypatch.setattr(cli, "load_instance", load_then_rewrite)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    original = inst.read_bytes()
    assert run(*cmd, "--jobs", "2", "--out", str(tmp_path / "b")) == 0
    assert inst.read_bytes() != original
    assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()
    assert pool_sizes == [2]


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, the callable and each chunk through pickle as a worker
    would get them."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        fn = pickle.loads(pickle.dumps(fn))
        return [fn(pickle.loads(pickle.dumps(c))) for c in chunks]


@pytest.fixture
def pool_sizes(monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    return _InProcessPool.sizes


def _counting(calls, fn, *args, **kwargs):
    calls.append(args)
    return fn(*args, **kwargs)


def test_pool_is_capped_by_items_and_cpus(tmp_path, monkeypatch, pool_sizes):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    serial = str(tmp_path / "serial.csv")
    assert run("sweep", inst, "--gamma", "0:1:0.25", "--jobs", "1",
               "--out", serial) == 0
    assert pool_sizes == []
    out = str(tmp_path / "out")
    for cpus in (64, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for flag, env in ((["--jobs", "100000"], None), ([], "100000")):
            if env:
                monkeypatch.setenv("DROTREE_JOBS", env)
            assert run("sweep", inst, "--gamma", "0:1:0.25", *flag,
                       "--out", out) == 0
            assert open(out, "rb").read() == open(serial, "rb").read()
            # one pool, one worker per grid point at most
            assert pool_sizes.pop() == min(cpus, 5) and pool_sizes == []
        monkeypatch.delenv("DROTREE_JOBS")


@pytest.mark.parametrize("flag,env", [("0", None), ("-3", None),
                                      (None, "0"), (None, "-3")])
def test_jobs_below_one_is_an_input_error(tmp_path, capsys, monkeypatch,
                                          pool_sizes, flag, env):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    jobs = ["--jobs", flag] if flag else []
    if env:
        monkeypatch.setenv("DROTREE_JOBS", env)
    assert run("sweep", inst, "--gamma", "0:1:0.5", *jobs) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "expected an integer >= 1" in err
    assert (flag or env) in err
    assert pool_sizes == []


def test_classify_oracle_checks_in_this_process(tmp_path, monkeypatch,
                                                pool_sizes):
    """classify --oracle starts no pool whatever DROTREE_JOBS and the cpu
    count say, and has no --jobs: argparse refuses it with exit 2."""
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    monkeypatch.setenv("DROTREE_JOBS", "8")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    rep = str(tmp_path / "rep.json")
    assert run("classify", inst, "--oracle", "--out", rep) == 0
    assert json.loads(open(rep).read())["oracle"]["n_checked"] > 1
    assert pool_sizes == []
    with pytest.raises(SystemExit) as exc:
        run("classify", inst, "--oracle", "--jobs", "1")
    assert exc.value.code == 2


def test_classify_labels_the_tree_once(tmp_path, monkeypatch):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    calls = []
    for module in (cli, effectiveness):
        monkeypatch.setattr(module, "classify_tree", functools.partial(
            _counting, calls, effectiveness.classify_tree))
    assert run("classify", inst, "--oracle", "--dot",
               str(tmp_path / "t.dot"), "--out", str(tmp_path / "r.json")) == 0
    assert len(calls) == 1


def test_strict_oracle_flags_unsound_rule_variant(tmp_path):
    # knife edge for the literal at-quantile mass rule: the group mass
    # equals gamma exactly, so c2_only calls the middle child
    # ineffective, yet removing it drops the value 2.8 -> 2.6; --strict
    # turns the oracle disagreement into exit code 4
    inst = write_instance(
        tmp_path, leaf_value_tree([1.0, 2.0, 3.0], q=[0.2, 0.5, 0.3]))
    rep = str(tmp_path / "rep.json")
    assert run("classify", inst, "--c2-rule", "c2_only", "--oracle",
               "--strict", "--out", rep) == 4
    blob = json.loads(open(rep).read())
    # both the arc label and the path label built on it are wrong
    assert blob["oracle"]["n_disagreements"] == 2
    assert {(r["kind"], r["id"]) for r in blob["oracle"]["disagreements"]} \
        == {("cond", "l1"), ("path", "l1")}
    # without --strict the disagreement is reported but not fatal
    assert run("classify", inst, "--c2-rule", "c2_only", "--oracle",
               "--out", rep) == 0
    # the default rule identifies the same child correctly
    assert run("classify", inst, "--oracle", "--strict", "--out", rep) == 0
    assert json.loads(open(rep).read())["oracle"]["n_disagreements"] == 0


def test_tied_sup_children_stay_unidentified(tmp_path):
    # equal leaf values tie at the sup; removing any one of them leaves
    # the worst case unchanged, so no child may be called effective
    inst = write_instance(tmp_path, leaf_value_tree([2.0, 2.0, 2.0]))
    rep = str(tmp_path / "rep.json")
    assert run("classify", inst, "--oracle", "--strict", "--out", rep) == 0
    blob = json.loads(open(rep).read())
    assert all(n["cond_label"] == "Unidentified" for n in blob["nodes"]
               if n["stage"] == 2)
    assert blob["oracle"]["n_checked"] == 0


@pytest.mark.parametrize("values, q, gamma", [
    ([1.0, 2.0, 3.0], [0.2, 0.1 + 1e-7, 0.7 - 1e-7], 0.3),
    ([1.0, 2.0, 2.0 + 1e-8, 3.0], [0.25] * 4, 0.5),
])
def test_strict_oracle_accepts_a_hair_above_the_edge(tmp_path, values, q,
                                                     gamma):
    # a child whose cumulative mass clears gamma by 1e-7, or whose value
    # clears VaR by 1e-8, lowers the worst case by less than
    # eff_tolerance; it stays Unidentified, so no label contradicts the
    # oracle
    inst = write_instance(tmp_path, leaf_value_tree(values, q=q, gamma=gamma))
    rep = str(tmp_path / "rep.json")
    assert run("classify", inst, "--oracle", "--strict", "--out", rep) == 0
    blob = json.loads(open(rep).read())
    assert blob["oracle"]["n_disagreements"] == 0
    assert [n["cond_label"] for n in blob["nodes"]].count("Unidentified") == 1


def test_inverted_benders_bracket_exits_5(tmp_path, capsys):
    # Benders' theta floor cuts off costs-to-go near -3e9: the solve is a
    # numerical breakdown, while the oracle, which solves the restricted
    # root LP alone, is unaffected
    inst = write_instance(tmp_path, steep_link_tree(1e9))
    out = str(tmp_path / "out.json")
    for solver in ("benders", "both"):
        assert run("solve", inst, "--solver", solver, "--out", out) == 5
        err = capsys.readouterr().err
        assert _one_error_line(err) and "theta floor" in err
    assert run("assess", inst, "--paths", "l1", "--out", out) == 0
    [res] = json.loads(open(out).read())["results"]
    assert (res["value"], res["verdict"]) == (-2e9, "Ineffective")


def test_assess_paths_and_realizations(tmp_path):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    out = str(tmp_path / "a.json")
    assert run("assess", inst, "--paths", "l1", "--out", out) == 0
    blob = json.loads(open(out).read())
    assert blob["results"][0]["verdict"] == "Effective"
    assert blob["results"][0]["value"] == pytest.approx(16 / 6)

    assert run("assess", inst, "--paths", "l0,l1,l2", "--out", out) == 0
    blob = json.loads(open(out).read())
    assert blob["results"][0]["infeasible"] is True
    assert blob["results"][0]["value"] is None

    assert run("assess", inst, "--realizations", "l2", "--out", out) == 0
    blob = json.loads(open(out).read())
    assert blob["results"][0]["node"] == "r"


def test_assess_paths_baseline_is_the_root_lp(tmp_path, monkeypatch):
    tree = leaf_value_tree([1.0, 2.0, 3.0])
    inst = write_instance(tmp_path, tree)
    want = format_float(solve_extensive(tree).objective)

    def no_policy(*args, **kwargs):
        raise AssertionError("solve_extensive called for a path assessment")

    monkeypatch.setattr(cli, "solve_extensive", no_policy)
    out = str(tmp_path / "a.json")
    assert run("assess", inst, "--paths", "l1", "--out", out) == 0
    assert f'"baseline": {want},' in open(out).read()


def test_sweep_grid_and_rows(tmp_path, capsys):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    out = str(tmp_path / "s.csv")
    assert run("sweep", inst, "--gamma", "0:1:0.05", "--jobs", "1",
               "--out", out) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "gamma,objective,n_effective_paths,n_ineffective,n_unidentified"
    assert len(lines) == 22  # header + 21 grid points
    gammas = [row.split(",")[0] for row in lines[1:]]
    assert gammas[0] == "0" and gammas[-1] == "1" and "0.25" in gammas
    objectives = [float(r.split(",")[1]) for r in lines[1:]]
    for lo, hi in zip(objectives, objectives[1:]):
        assert hi >= lo - 1e-9  # risk grows with the radius


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0, 3.0]))
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run("sweep", inst, "--gamma", "0:1:0.25", "--jobs", "1",
               "--out", a) == 0
    # five grid points: 3 + 2 over two workers, 2 + 2 + 1 over three
    for jobs in ("2", "3"):
        monkeypatch.setenv("DROTREE_JOBS", jobs)
        assert run("sweep", inst, "--gamma", "0:1:0.25", "--out", b) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


def test_chunks_deal_in_strides_and_merge_back():
    for size in range(0, 12):
        seq = list(range(size))
        for n in range(1, 6):
            parts = cli._chunks(seq, n)
            assert len(parts) == min(n, size)
            assert all(parts)
            lens = [len(p) for p in parts]
            assert not lens or max(lens) - min(lens) <= 1
            assert cli._merge(parts) == seq
    # costly items at the end of the list are shared out, not bunched
    assert cli._chunks(list("aaaabbbb"), 2) == [list("aabb"), list("aabb")]


def test_benders_feasibility_cut_on_partial_link(tmp_path):
    # the stage-2 row links to x0 only, while the root has two variables;
    # pushing x0 above 2 makes both children infeasible, so Benders must
    # cut the root with a two-entry gradient
    blob = {
        "name": "partial-link", "stages": 2, "gamma": [0.3],
        "nodes": [
            {"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}},
            {"id": "a", "stage": 2, "parent": "r", "q": 0.5, "xi": {}},
            {"id": "b", "stage": 2, "parent": "r", "q": 0.5, "xi": {}},
        ],
        "stage_templates": [
            {"n_vars": 2, "cost": [-1.0, 1.0], "rows": [],
             "var_bounds": [[0.0, 10.0], [0.0, 10.0]]},
            {"n_vars": 1, "cost": [1.0],
             "rows": [{"self": {"0": 1.0}, "link": {"0": -1.0},
                       "sense": ">=", "rhs": -1.0}],
             "var_bounds": [[0.0, 1.0]]},
        ],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(blob))
    out = str(tmp_path / "out.json")
    for solver in ("extensive", "benders"):
        assert run("solve", str(path), "--solver", solver, "--out", out) == 0
        assert json.loads(open(out).read())["objective"] == -1.0
    assert run("solve", str(path), "--solver", "both", "--out", out) == 0
    check = json.loads(open(out).read())["cross_check"]
    assert check["benders"] == -1.0
    assert check["rel_diff"] == 0.0


def test_nodes_in_any_file_order(tmp_path):
    inst = str(tmp_path / "r.json")
    run("gen", "--random", "3,3,3", "--out", inst)
    blob = json.loads(open(inst).read())
    blob["nodes"] = blob["nodes"][::-1]  # leaves first, root last
    flipped = str(tmp_path / "flipped.json")
    with open(flipped, "w") as fh:
        json.dump(blob, fh)

    def objective(path, solver):
        out = str(tmp_path / "out.json")
        assert run("solve", path, "--solver", solver, "--out", out) == 0
        return json.loads(open(out).read())["objective"]

    for solver in ("extensive", "benders", "both"):
        want = objective(inst, solver)
        got = objective(flipped, solver)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def labels(path):
        out = str(tmp_path / "rep.json")
        assert run("classify", path, "--out", out) == 0
        rep = json.loads(open(out).read())
        return ({n["id"]: n["cond_label"] for n in rep["nodes"]},
                {p["id"]: p["path_label"] for p in rep["leaves"]})

    assert labels(flipped) == labels(inst)


def test_exit_codes(tmp_path):
    assert run("solve", str(tmp_path / "missing.json")) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("solve", str(bad)) == 2

    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    assert run("sweep", inst, "--gamma", "0:2:0.5") == 2
    assert run("sweep", inst, "--gamma", "nope") == 2
    assert run("assess", inst, "--paths", "ghost") == 2
    assert run("gen", "--random", "1,9,2", "--out", str(tmp_path / "x.json")) == 2

    infeasible = {
        "name": "bad", "stages": 2, "gamma": [0.5],
        "nodes": [
            {"id": "r", "stage": 1, "parent": None, "q": 1.0, "xi": {}},
            {"id": "a", "stage": 2, "parent": "r", "q": 1.0, "xi": {}},
        ],
        "stage_templates": [
            {"n_vars": 1, "cost": [0.0], "rows": []},
            {"n_vars": 1, "cost": [1.0],
             "rows": [{"self": {"0": 1.0}, "link": {}, "sense": ">=",
                       "rhs": 2.0}],
             "var_bounds": [[0.0, 1.0]]},
        ],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(infeasible))
    assert run("solve", str(path)) == 3

    with pytest.raises(SystemExit) as exc:
        run("nonsense")
    assert exc.value.code == 2


def _one_error_line(err):
    return len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("spec", ["0:1:nan", "0:nan:0.1", "nan:1:0.1",
                                  "0:1:inf", "0:inf:0.1", "-inf:1:0.1"])
def test_sweep_grid_must_be_finite(tmp_path, capsys, spec):
    with pytest.raises(ParseError, match="finite"):
        cli._parse_grid(spec)
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    assert run("sweep", inst, f"--gamma={spec}") == 2
    assert _one_error_line(capsys.readouterr().err)


def test_sweep_grid_point_cap():
    assert len(cli._parse_grid("0:1:0.0001")) == 10_001
    assert cli.MAX_GRID_POINTS >= 10_001
    # refused from a, b and step alone, before any point is listed
    for spec in ("0:1:1e-5", "0:1:1e-9", "0.5:0.5000001:1e-300"):
        with pytest.raises(ParseError, match="points"):
            cli._parse_grid(spec)


@pytest.mark.parametrize("flag", ["--paths", "--realizations"])
def test_assess_empty_id_list_is_an_input_error(tmp_path, capsys, flag):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    assert run("assess", inst, flag, "") == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and flag in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_solve_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    with pytest.raises(SystemExit) as exc:
        run("solve", inst, "--solver", "benders", "--tol", tol)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "--tol" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_xi_is_an_input_error(tmp_path, capsys, bad):
    blob = to_dict(leaf_value_tree([1.0, 2.0]))
    blob["nodes"][1]["xi"]["d"] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert run("solve", str(path)) == 2
    assert "xi field 'd'" in capsys.readouterr().err


def test_lower_bound_above_upper_is_an_input_error(tmp_path, capsys):
    blob = to_dict(leaf_value_tree([1.0, 2.0]))
    blob["stage_templates"][1]["var_bounds"] = [[3.0, {"xi": "d"}]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert run("solve", str(path)) == 2
    assert "node 'l0': variable 0 has lower bound above upper bound" in \
        capsys.readouterr().err


def test_gen_water_gamma_flag(tmp_path):
    inst = str(tmp_path / "w.json")
    assert run("gen", "--water", "0", "--gamma", "0.95", "--out", inst) == 0
    tree = load_instance(inst)
    assert tree.gamma == (0.95, 0.95)
    assert len(tree.nodes) == 73


def _edited_instance(edit):
    blob = to_dict(leaf_value_tree([1.0, 2.0]))
    edit(blob)
    # "BIG" stands for the JSON number 1e400, which loads as float inf
    return json.dumps(blob).replace('"BIG"', "1e400").encode()


MALFORMED_FILES = {
    "stages-1e400": (lambda b: b.update(stages="BIG"), "'stages'"),
    "stages-2.5": (lambda b: b.update(stages=2.5), "'stages'"),
    "node-stage-2.9": (lambda b: b["nodes"][1].update(stage=2.9),
                       "node entry"),
    "n_vars-1.7": (lambda b: b["stage_templates"][0].update(n_vars=1.7),
                   "stage template 1"),
    "node-stage-1e400": (lambda b: b["nodes"][1].update(stage="BIG"),
                         "node entry"),
    "n_vars-1e400": (lambda b: b["stage_templates"][0].update(n_vars="BIG"),
                     "stage template 1"),
    "nodes-number": (lambda b: b.update(nodes=5), "'nodes'"),
    "templates-number": (lambda b: b.update(stage_templates=5),
                         "'stage_templates'"),
    "xi-list": (lambda b: b["nodes"][1].update(xi=[1.0]), "node entry"),
    "row-list": (lambda b: b["stage_templates"][1].update(rows=[[1.0]]),
                 "stage template 2"),
    "self-list": (lambda b: b["stage_templates"][1]["rows"][0].update(
        self=[1.0]), "stage template 2"),
}
# a JSON boolean where a number belongs, in each kind of number field
_T2, _ROW = ("stage_templates", 1), ("stage_templates", 1, "rows", 0)
for name, where, key, section in (
        ("stages", (), "stages", "'stages'"),
        ("gamma", ("gamma",), 0, "'gamma'"),
        ("node-stage", ("nodes", 1), "stage", "node entry"),
        ("q", ("nodes", 1), "q", "node entry"),
        ("xi", ("nodes", 1, "xi"), "d", "node entry"),
        ("n_vars", _T2, "n_vars", "stage template 2"),
        ("cost", (*_T2, "cost"), 0, "stage template 2"),
        ("self", (*_ROW, "self"), "0", "stage template 2"),
        ("link", (*_ROW, "link"), "0", "stage template 2"),
        ("rhs", _ROW, "rhs", "stage template 2"),
        ("scale", (*_ROW, "rhs"), "scale", "stage template 2"),
        ("offset", (*_ROW, "rhs"), "offset", "stage template 2"),
        ("lower", (*_T2, "var_bounds", 0), 0, "stage template 2"),
        ("upper", (*_T2, "var_bounds", 0), 1, "stage template 2")):
    def _set_true(blob, where=where, key=key):
        for k in where:
            blob = blob[k]
        blob[key] = True
    MALFORMED_FILES[f"{name}-true"] = (_set_true, section)


@pytest.mark.parametrize("case", [*MALFORMED_FILES, "latin-1"])
def test_malformed_instance_file_is_an_input_error(tmp_path, capsys, case):
    if case == "latin-1":
        text = json.dumps(to_dict(leaf_value_tree([1.0, 2.0], name="café")),
                          ensure_ascii=False).encode("latin-1")
        section = "UTF-8"
    else:
        edit, section = MALFORMED_FILES[case]
        text = _edited_instance(edit)
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert run("solve", str(path)) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and section in err
    assert "Traceback" not in err


def test_output_path_that_is_a_directory(tmp_path, capsys):
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    for argv in (["solve", inst, "--out", str(tmp_path)],
                 ["solve", inst, "--dump-lp", str(tmp_path)],
                 ["classify", inst, "--dot", str(tmp_path)],
                 ["gen", "--random", "7,3,2", "--out", str(tmp_path)]):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert _one_error_line(err) and "Is a directory" in err


def test_numerical_breakdown_exit_code(tmp_path, capsys, monkeypatch):
    def breaks_down(tree):
        raise NumericalBreakdown("pivot magnitude 1.000e-12")

    monkeypatch.setattr(cli, "solve_extensive", breaks_down)
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    assert cli.NUMERICAL_ERROR == 5
    assert run("solve", inst) == 5
    err = capsys.readouterr().err
    assert _one_error_line(err) and "pivot magnitude" in err


def test_nonfinite_ratio_minimum_exits_5_with_one_line(tmp_path, capsys):
    inst = tmp_path / "r.json"
    assert run("gen", "--random", "7,3,2", "--out", str(inst)) == 0
    blob = json.loads(inst.read_text())
    blob["stage_templates"][2]["cost"][2] = -1e200
    inst.write_text(json.dumps(blob))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's overflow warnings stay off
        assert run("solve", str(inst)) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ratio test minimum nan\n"


# a finite template coefficient, scale 1e308 times xi field d0, whose value
# overflows at the named node of `gen --random 3,3,2`: (where, index, node)
OVERFLOWING = {
    "stage-1-cost": (lambda b: b["stage_templates"][0]["cost"], 1, "n0"),
    "stage-2-link": (lambda b: b["stage_templates"][1]["rows"][0]["link"],
                     "0", "n1"),
    "stage-3-cost": (lambda b: b["stage_templates"][2]["cost"], 0, "n4"),
}


@pytest.mark.parametrize("solver", ["extensive", "benders"])
@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_overflowing_coefficient_is_an_input_error(tmp_path, capsys, case,
                                                   solver):
    """Each case died with a traceback on at least one route (a non-finite
    float at the writer, a non-finite rhs in add_row, an IndexError in the
    worst case); both routes now exit 2 naming the node."""
    inst = tmp_path / "r.json"
    assert run("gen", "--random", "3,3,2", "--out", str(inst)) == 0
    blob = json.loads(inst.read_text())
    where, key, node = OVERFLOWING[case]
    where(blob)[key] = {"xi": "d0", "scale": 1e308}
    inst.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run("solve", str(inst), "--solver", solver) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert captured.err.startswith(f"error: node {node!r}: coefficient 1e+308")


def test_rhs_overflowing_at_the_parent_decision_exits_5(tmp_path, capsys):
    """A finite link coefficient of -1e308 at stage 3 moves an infinite
    rhs into a Benders node LP at its parent's decision: a breakdown,
    exit 5 with one error line, where add_row raised a ValueError."""
    blob = to_dict(gen_random(3, T=3, branching=2))
    blob["stage_templates"][2]["rows"][0]["link"]["0"] = -1e308
    inst = tmp_path / "f2.json"
    inst.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run("solve", str(inst), "--solver", "benders") == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err)
    assert "rhs inf is not finite at the parent decision" in captured.err


def test_non_finite_optimum_exits_5(tmp_path, capsys):
    """A stage-2 lower bound of xi + 1e308 drives the root LP to an
    optimal basis whose objective is inf: a breakdown, exit 5 with one
    error line, for either solver and for a path assessment."""
    blob = to_dict(gen_random(3, T=3, branching=2))
    blob["stage_templates"][1]["var_bounds"][1][0] = {"xi": "d0",
                                                      "offset": 1e308}
    inst = tmp_path / "f1.json"
    inst.write_text(json.dumps(blob))
    for argv in (["solve"], ["solve", "--solver", "benders"],
                 ["assess", "--paths", "n3"]):
        assert run(argv[0], str(inst), *argv[1:]) == 5
        err = capsys.readouterr().err
        assert _one_error_line(err) and "optimal objective inf" in err


def test_own_policy_failing_its_check_exits_5(tmp_path, capsys,
                                              monkeypatch):
    """A policy the solver produced that fails the feasibility check is
    the solve's failure (exit 5), not an input error (exit 2)."""
    monkeypatch.setattr(solver_module, "POLICY_FEAS_TOL", -1.0)
    inst = write_instance(tmp_path, leaf_value_tree([1.0, 2.0]))
    for solver in ("extensive", "benders"):
        assert run("solve", inst, "--solver", solver) == 5
        err = capsys.readouterr().err
        assert _one_error_line(err) and "solved policy fails" in err
