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


def test_identification_rate_batch_agrees_with_the_oracle():
    identified, total, disagreements, _, _ = load_script(
        "identification_rate").run_batch(0.5, 1, 3, 9000)
    assert 0 < identified <= total
    assert disagreements == 0


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
