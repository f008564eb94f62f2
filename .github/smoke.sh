#!/usr/bin/env bash
# End-to-end run of the command-line interface in a fresh temporary directory:
# the README quick start, a predict outside the training box and the note on
# stderr that counts its rows outside the box (the whole batch,
# then the same batch read from a pipe, then through the package root's Python
# API, then its last 100 rows alone, then its last 50 rows, all outside the box,
# then one row inside the box alone, then a copy holding a byte that is not
# UTF-8, which is refused), three copies of the model with one bad number
# each, which are refused, a model fitted and saved through the
# Python API and predicted by the CLI (the API's replace refusing a target
# name that is also a feature name, and a feature name that is not a
# string), a fit and a predict on repeated rows, a fit from a config file,
# an oos and an ood bench, and a report.
#
# Usage: .github/smoke.sh [COMMAND...]    (default: the installed `splinecfr`)
# From a checkout, without installing:
#   PYTHONPATH="$PWD/src" bash .github/smoke.sh python -m splinecfr.cli
# or, from the root of the checkout, PYTHONPATH=src.
set -euo pipefail
if [ "$#" -eq 0 ]; then
  set -- splinecfr
fi
cmd=("$@")
splinecfr() { "${cmd[@]}" "$@"; }

# The run works in a temporary directory, so a relative PYTHONPATH entry is
# taken from the directory the script was started in.
if [ -n "${PYTHONPATH:-}" ]; then
  IFS=: read -ra entries <<< "$PYTHONPATH"
  PYTHONPATH=""
  for entry in "${entries[@]}"; do
    case "$entry" in
      /*) ;;
      *) entry="$PWD/$entry" ;;
    esac
    PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}$entry"
  done
  export PYTHONPATH
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
splinecfr synth sinc --n 200 --out sinc.csv
splinecfr fit --data sinc.csv --target y --out-dir run1 --max-depth 3 --knots 3 --norm 1
splinecfr predict --model run1/model.json --data sinc.csv --out run1/pred.csv
test "$(wc -l < run1/pred.csv)" -eq 201
# run1 was trained on [-10, 10]; half of [-20, 20] lies outside it.
splinecfr synth sinc --n 200 --lo -20 --hi 20 --out wide.csv
splinecfr predict --model run1/model.json --data wide.csv --out run1/wide.csv 2> wide.err
test "$(wc -l < run1/wide.csv)" -eq 201
grep -qxF 'note: 100 of 200 rows lie outside the training box' wide.err
# A pipe is read as the file is: the same bytes out.
cat wide.csv | splinecfr predict --model run1/model.json --data /dev/stdin --out run1/wide_pipe.csv
cmp run1/wide.csv run1/wide_pipe.csv
# A cell holding a byte that is not UTF-8 is an input error (exit code 2)
# that names its line and column, and no predictions are written.
{ head -n 4 wide.csv; printf '\377,0\n'; tail -n +6 wide.csv; } > wide_bad.csv
status=0
splinecfr predict --model run1/model.json --data wide_bad.csv --out run1/bad.csv 2> bad.err || status=$?
test "$status" -eq 2
grep -qF "wide_bad.csv line 5, column 'x': not UTF-8" bad.err
test ! -e run1/bad.csv
# A model document with one bad number is an input error (exit code 2) that
# names the item: a spline coefficient set to true or to the NaN token, and
# an interior knot given as a string.
python - <<'PY'
import json
edits = {
    "bad_true": lambda d: d["layers"][1]["coefficients"].__setitem__(1, True),
    "bad_nan": lambda d: d["layers"][1]["coefficients"].__setitem__(1, float("nan")),
    "bad_knot": lambda d: d["layers"][1]["variables"][0]["interior"].__setitem__(0, "0.5"),
}
for name, edit in edits.items():
    with open("run1/model.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)  # float("nan") is written as the NaN token
PY
for bad in 'bad_true:coefficients[1]: expected a number' \
           'bad_nan:coefficients[1]: expected a finite number, got nan' \
           'bad_knot:variables[0].interior[0]: expected a number'; do
  status=0
  splinecfr predict --model "${bad%%:*}.json" --data sinc.csv --out run1/bad.csv 2> bad.err || status=$?
  test "$status" -eq 2
  grep -qxF "error: model.layers[1].${bad#*:}" bad.err
  test ! -e run1/bad.csv
done
python -c "import csv, math; rows = list(csv.DictReader(open('run1/wide.csv'))); assert all(math.isfinite(float(r['y_pred'])) for r in rows)"
# The package root alone (no module-level name) loads the model and predicts
# the same y_pred bytes that the CLI wrote.
python - <<'PY'
import csv
from splinecfr import deserialize, load_csv
with open("run1/model.json", encoding="utf-8") as fh:
    model = deserialize(fh.read())
ds = load_csv("wide.csv", "y")
assert ds.feature_names == model.feature_names
got = [repr(float(v)) for v in model.predict(ds.features)]
with open("run1/wide.csv", newline="") as fh:
    assert got == [r["y_pred"] for r in csv.DictReader(fh)]
assert len(got) == 200
PY
# A row's prediction does not depend on its batch: the last 100 rows alone
# give the same y_pred bytes as in the whole batch.
{ head -n 1 wide.csv; tail -n 100 wide.csv; } > wide_tail.csv
splinecfr predict --model run1/model.json --data wide_tail.csv --out run1/wide_tail.csv
test "$(tail -n +2 run1/wide_tail.csv | cut -d, -f2)" = "$(tail -n 100 run1/wide.csv | cut -d, -f2)"
# The last 50 rows have x > 10, all outside the box, so predicting them alone
# searches no knots; they still match the batch where x was searched.
{ head -n 1 wide.csv; tail -n 50 wide.csv; } > wide_out.csv
splinecfr predict --model run1/model.json --data wide_out.csv --out run1/wide_out.csv 2> wide_out.err
grep -qxF 'note: 50 of 50 rows lie outside the training box' wide_out.err
test "$(tail -n +2 run1/wide_out.csv | cut -d, -f2)" = "$(tail -n 50 run1/wide.csv | cut -d, -f2)"
# Row 101 (x near 0.1) lies inside the box; alone, its span is found with no
# batch around it, and it still gives the y_pred bytes of the whole batch.
{ head -n 1 wide.csv; sed -n '102p' wide.csv; } > wide_one.csv
python -c "import csv; (r,) = csv.DictReader(open('wide_one.csv')); assert -10 < float(r['x']) < 10"
splinecfr predict --model run1/model.json --data wide_one.csv --out run1/wide_one.csv 2> wide_one.err
if grep -q '^note:' wide_one.err; then
  echo "unexpected note for a row inside the box" >&2
  exit 1
fi
test "$(tail -n +2 run1/wide_one.csv | cut -d, -f2)" = "$(sed -n '102p' run1/wide.csv | cut -d, -f2)"
# A model fitted and serialized through the package root, with its column
# names set as the README's Python API example sets them, is a model.json
# that the CLI's predict accepts; it writes the API's own y_pred bytes.
python - <<'PY'
from dataclasses import replace
from splinecfr import FitConfig, deserialize, fit, load_csv, serialize
train = load_csv("sinc.csv", target_column="y")
model = fit(train.features, train.target, FitConfig(max_depth=3, knots_per_depth=3, norm=1.0))
model = replace(model, feature_names=train.feature_names, target_name=train.target_name)
# A model whose names break a rule of the document is refused when built.
try:
    replace(model, feature_names=("y",), target_name="y")
except ValueError as exc:
    assert "target_name" in str(exc), exc
else:
    raise AssertionError("a target name that is also a feature name was accepted")
try:
    replace(model, feature_names=(1,))
except ValueError as exc:
    assert "feature_names[0]" in str(exc), exc
else:
    raise AssertionError("a feature name that is not a string was accepted")
text = serialize(model)
with open("api_model.json", "w", encoding="utf-8") as fh:
    fh.write(text)
y_pred = deserialize(text).predict(load_csv("wide.csv", target_column="y").features)
with open("api_pred.txt", "w", encoding="utf-8") as fh:
    fh.write("".join(f"{float(v)!r}\n" for v in y_pred))
PY
splinecfr predict --model api_model.json --data wide.csv --out api_wide.csv
test "$(tail -n +2 api_wide.csv | cut -d, -f2)" = "$(cat api_pred.txt)"
test "$(wc -l < api_pred.txt)" -eq 200
{ cat sinc.csv; tail -n +2 sinc.csv; } > dup.csv
splinecfr fit --data dup.csv --target y --out-dir run3 --max-depth 3 --knots 3 --norm 1
grep -qx 'fitted_depth,3' run3/fit_log.txt
splinecfr predict --model run3/model.json --data dup.csv --out run3/pred.csv
# Both copies of each row predict identically (columns after row_id).
test "$(sed -n '2,201p' run3/pred.csv | cut -d, -f2-)" = "$(sed -n '202,401p' run3/pred.csv | cut -d, -f2-)"
printf 'target = y\nmax-depth = 2\nknots = 3\nnorm = 1\n' > run.cfg
splinecfr fit --data sinc.csv --config run.cfg --out-dir run2
grep -qx 'fitted_depth,2' run2/fit_log.txt
splinecfr bench --data sinc.csv --target y --runs 2 --max-depth 2 --knots 3 --norm 1 --out-dir b
grep -q '^spline_cfr,' b/aggregate.csv
splinecfr bench --data sinc.csv --target y --protocol ood --runs 2 --max-depth 2 --knots 3 --norm 1 --out-dir o
test -s o/kappa.csv
printf 'run_id,row_id,y_true,y_pred\n0,0,1.5,1.0\n0,1,2.5,3.0\n' > ext.csv
splinecfr report --predictions ext.csv --threshold 2 --top-k 2 --out-dir rep
test -s rep/top_k.csv
echo "smoke test passed"
