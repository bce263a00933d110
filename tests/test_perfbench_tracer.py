import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = ["perfbench", "src"]
import modlab.cli
import tracer
tracer.Tracer().install()
"""


def test_tracer_installs_with_full_coverage():
    # the traced benchmark run (--trace 1) patches every traced modlab name
    # and refuses to start when one is missing or still reachable unwrapped
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
