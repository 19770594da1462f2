"""Set-up probe: import cranopt, read the stock scenario, print "ready".

Run as ``python3 perfbench/cold_start.py <checkout root>``; run.py times
fresh processes of this script from spawn to the "ready" line.
"""

import sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))

from cranopt.scenario import load_config  # noqa: E402  (needs the path above)

load_config(str(root / "scenarios" / "smallcell.json"))
print("ready", flush=True)
