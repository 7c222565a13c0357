"""Set-up probe: a fresh interpreter imports pillar_qed and runs one op.

    python3 perfbench/probe.py <workload> <work-dir> <input-index>

``run.py`` times this whole process for ``setup_s``; the work directory
must already hold the inputs that ``run.py`` generated.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pillar_qed  # noqa: E402,F401  (the import is what is being timed)
import workloads  # noqa: E402

work = Path(sys.argv[2])
wl = workloads.WORKLOADS[sys.argv[1]]()
out = work / "probe"
out.mkdir(exist_ok=True)
wl.op(workloads.load_inputs(work)[int(sys.argv[3])], out)
