import csv
import hashlib
import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_entry_points_exist():
    # bench/tracing.py wraps what it traces by name, so a rename in src
    # would break every traced benchmark run
    path = SCRIPTS.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(module, attr, None)), attr
    for _, cls, attr, _ in tracing.METHODS:
        assert attr in cls.__dict__, attr


def test_identification_rate_batch_agrees_with_the_oracle():
    identified, total, disagreements, _, _ = load_script(
        "identification_rate").run_batch(0.5, 1, 3, 9000)
    assert 0 < identified <= total
    assert disagreements == 0


def test_identification_rate_exits_1_on_a_disagreement(monkeypatch, capsys):
    script = load_script("identification_rate")
    argv = ["--instances", "1", "--gammas", "0.5"]
    assert script.main(argv) == 0
    check = script.check_labels

    def flipped(*args):
        return [dict(r, agree=False) for r in check(*args)]

    monkeypatch.setattr(script, "check_labels", flipped)
    assert script.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1].split()[3] != "0"


def test_water_sweep_writes_the_csv(tmp_path, capsys):
    load_script("water_sweep").main(["--points", "3",
                                     "--out-dir", str(tmp_path)])
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma", "objective", "n_effective_paths",
                       "n_ineffective", "n_unidentified", "effective_leaves"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.5, 1.0]
    for row in rows[1:]:
        # the 64 water paths are tallied once each
        assert sum(int(n) for n in row[2:5]) == 64
    assert (tmp_path / "labels_low.dot").read_text().startswith("digraph")


def test_cli_bytes_fingerprints_output_and_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    line = load_script("cli_bytes").fingerprint(
        ["gen", "--random", "7,3,2", "--out", "r.json"], ("r.json",))
    empty = hashlib.sha256(b"").hexdigest()
    inst = hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest()
    assert line == (f"0 {empty} {empty} r.json={inst} "
                    "gen --random 7,3,2 --out r.json")


def test_cli_bytes_keeps_each_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    load_script("cli_bytes").fingerprint(
        ["gen", "--random", "7,3,2", "--out", "r.json"], ("r.json",),
        keep=tmp_path / "kept" / "000")
    kept = tmp_path / "kept" / "000"
    assert (kept / "argv").read_text() == "gen --random 7,3,2 --out r.json\n"
    assert (kept / "code").read_text() == "0\n"
    assert (kept / "stdout").read_bytes() == (kept / "stderr").read_bytes() \
        == b""
    assert (kept / "files" / "r.json").read_bytes() == \
        (tmp_path / "r.json").read_bytes()


def _kept(root, k, argv, stdout, files=None):
    """One command's directory in the layout of cli_bytes.py --keep."""
    cmd = root / f"{k:03d}"
    (cmd / "files").mkdir(parents=True)
    (cmd / "argv").write_text(argv + "\n")
    (cmd / "code").write_text("0\n")
    (cmd / "stdout").write_text(stdout)
    (cmd / "stderr").write_text("")
    for name, text in (files or {}).items():
        (cmd / "files" / name).write_text(text)


def test_cli_diff_tells_digits_from_content(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, value, verdict in ((old, "66.565252386000012", "Effective"),
                                 (new, "66.565252385999997", "Effective")):
        _kept(root, 0, "gen --water 0 --out w.json", "",
              {"w.json": '{"gamma": [0.95]}'})
        _kept(root, 1, "solve w.json", f'{{"objective": {value}}}\n')
        _kept(root, 2, "classify w.json --oracle",
              f'{{"verdict": "{verdict}", "value": {value}}}\n')
    diff = load_script("cli_diff")
    assert diff.main([str(old), str(new)]) == 0
    rows = {line.rsplit(None, 4)[0]: line.split()[-4:]
            for line in capsys.readouterr().out.splitlines()[1:]}
    # commands, identical, digits, content
    assert rows["gen"] == ["1", "1", "0", "0"]
    assert rows["solve"] == ["1", "0", "1", "0"]
    assert rows["classify --oracle"] == ["1", "0", "1", "0"]
    assert rows["total"] == ["3", "1", "2", "0"]

    # a verdict, or a number beyond 1e-9 relative, is content: exit 1
    _kept(tmp_path / "b", 0, "solve w.json", '{"objective": 66.5653}\n')
    _kept(tmp_path / "c", 0, "solve w.json", '{"objective": 66.5652}\n')
    (new / "002" / "stdout").write_text(
        '{"verdict": "Ineffective", "value": 66.565252385999997}\n')
    assert diff.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == (
        "content: 002 classify w.json --oracle: stdout: "
        """'{"verdict": "Effective", "value": ' -> """
        """'{"verdict": "Ineffective", "value": '""")
    assert diff.main([str(tmp_path / "b"), str(tmp_path / "c")]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "'66.5653' -> '66.5652'")

    # a file that gains a row: the line names the first differing token
    rows = [f" c{i}: 1 x{i} >= {i}\n" for i in range(3000)]
    gained = rows[:1000] + [" c3000: 2 x7 <= 5\n"] + rows[1000:]
    for root, lines in ((tmp_path / "d", rows), (tmp_path / "e", gained)):
        _kept(root, 0, "solve w.json --dump-lp w.lp", "",
              {"w.lp": "Subject To\n" + "".join(lines) + "End\n"})
    assert diff.main([str(tmp_path / "d"), str(tmp_path / "e")]) == 1
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == ("content: 000 solve w.json --dump-lp w.lp: "
                    "files/w.lp: '1000' -> '3000'")

    # a long text token is cut around the character where the two part
    assert diff.compare_text("a" * 5000 + "x" + "b" * 5000,
                             "a" * 5000 + "y" + "b" * 5000) == (
        "..." + "a" * 40 + "x" + "b" * 39 + "...",
        "..." + "a" * 40 + "y" + "b" * 39 + "...")
