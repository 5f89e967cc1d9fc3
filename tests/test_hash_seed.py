"""Oracle and engine output does not depend on the hash seed: the same
commands, run through cli.main in one interpreter with PYTHONHASHSEED=1 and
in another with PYTHONHASHSEED=2, print the same stdout and stderr and
return the same exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
P = "programs"

RUNS = [
    f"semantics {P}/omega.colp {P}/omega.univ",
    f"semantics {P}/lists.colp {P}/lists.univ",
    f"semantics {P}/maxelem.colp {P}/maxelem.univ",
    f"semantics {P}/regex.colp {P}/regex.univ",
    f"check {P}/omega.colp {P}/omega.univ p(X). --budget 12",
    f"check {P}/lists.colp {P}/lists.univ member(X,[0]). --budget 12",
    f"check {P}/maxelem.colp {P}/maxelem.univ L=[1,2|L],maxElem(L,M). "
    "--budget 16",
    f"check {P}/regex.colp {P}/regex.univ match(W,cat(0,1)). --budget 16",
    f"check {P}/regex.colp {P}/regex.univ match([0,1],R). --budget 8 "
    "--answers 2",
    f"check {P}/lists.colp {P}/lists.univ append(X,Y,[0,1]).",
    f"run {P}/ltl.colp W=[1|W],sat(W,until(one,zero)). --strategy dfs "
    "--budget 24 --trace",
    f"run {P}/lists.colp X=[1|Y],Y=[1|Y].",
    f"run {P}/maxelem.colp L=[3,3,3|L],maxElem(L,M).",
    f"run {P}/lists.colp append(X,Y,Z). --answers 3 --budget 12",
    f"run {P}/lists.colp member(X,[0,1,0,2,1]). --answers 8",
    f"run {P}/lists.colp member(X,[Y,f(Y),Y,Z]). --answers 8",
    f"run {P}/lists.colp L=[A,B|L],member(X,L). --answers 4 --budget 64",
    f"run {P}/omega.colp p(X). --answers 2 --budget 16 --trace",
    f"run {P}/omega.colp p(z). --strategy dfs --budget 40 --trace",
    f"run {P}/ltl.colp W=[1|W],sat(W,until(one,zero)). --budget 16 --trace",
    # the inductive and coinductive modes
    f"semantics {P}/omega.colp {P}/omega.univ --mode coinductive",
    f"semantics {P}/lists.colp {P}/lists.univ --mode coinductive",
    f"check {P}/maxelem.colp {P}/maxelem.univ all_pos(L). --mode inductive "
    "--budget 24",
    f"check {P}/omega.colp {P}/omega.univ p(X). --mode coinductive "
    "--budget 12",
    f"run {P}/omega.colp p(X). --mode coinductive --budget 8 --trace",
    # answers found over several sweeps, and builtins alone
    f"run {P}/lists.colp append(X,Y,[0,1,0,1,1]). --answers 8",
    f"run {P}/lists.colp X=[1,2],Y=X. --budget 4",
]

# reads the commands as JSON on stdin, writes [exit code, stdout, stderr]
# for each as JSON on stdout
CHILD = """
import io, json, sys
from colp.cli import main
results = []
for run in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    code = main(run.split(), stdout=out, stderr=err)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def outputs(seed: int) -> list:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                          input=json.dumps(RUNS), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def test_output_does_not_depend_on_the_hash_seed():
    first, second = outputs(1), outputs(2)
    assert len(first) == len(second) == len(RUNS)
    for run, a, b in zip(RUNS, first, second):
        assert "internal error" not in a[2], run
        assert a == b, run
