"""
The command-line workflow end to end
====================================

Everything the library does is also reachable through the ``intervalcl``
command: ``train`` fits a task sequence from an INI config, ``eval``
re-scores a checkpoint under attacks, ``certify`` sweeps a radius grid,
and ``toy2d`` runs the virtual-sample study. Every run writes plain CSV
and JSON into its output directory. This script drives the same entry
point the console command uses and shows the files it leaves behind.
"""

import pathlib
import tempfile

from intervalcl.cli import main

workdir = pathlib.Path(tempfile.mkdtemp(prefix="intervalcl-demo-"))
config = workdir / "run.ini"
config.write_text("""\
[data]
kind = blobs
tasks = 2
classes = 3
spread = 0.07
separation = 0.3
train_size = 120
val_size = 30
test_size = 60
seed = 5

[net]
hidden = 16

[hypernet]
hidden = 32
embedding = 8

[train]
steps = 200
eps = 0.08
beta = 0.01

[attack]
enabled = true
eps = 0.08
iters = 40

[output]
dir = {out}
""".format(out=workdir / "run"))

# Train the sequence. The command prints its output directory and exits 0.
code = main(["train", "--config", str(config)])
print(f"train exited {code}")

run = workdir / "run"
print("\nfiles written:")
for path in sorted(run.iterdir()):
    print(f"  {path.name:24s} {path.stat().st_size:7d} bytes")

print("\nresults.csv — accuracy matrix rows plus summary metrics:")
print((run / "results.csv").read_text(), end="")

# Re-evaluate the checkpoint under the configured attack...
main(["eval", "--config", str(config), "--checkpoint",
      str(run / "checkpoint.json")])
print("\neval.csv — clean, attacked, and verified accuracy per task:")
print((run / "eval.csv").read_text(), end="")

# ...and sweep certification over a radius grid.
main(["certify", "--config", str(config), "--checkpoint",
      str(run / "checkpoint.json"), "--grid", "0,0.02,0.05,0.08"])
print("\ncertify.csv — verified accuracy per task and radius:")
print((run / "certify.csv").read_text(), end="")

print(f"\neverything under {workdir}")
