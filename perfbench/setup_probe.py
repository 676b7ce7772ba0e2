"""Time one fresh interpreter's set-up: ``import repro`` and ``characterized_system()``.

Prints one JSON line; ``done`` is ``time.monotonic()`` when set-up
finished, which the parent compares with its own clock reading taken
before it started this process.
"""

import json
import time

started = time.monotonic()
import repro  # noqa: E402,F401

imported = time.monotonic()
from repro.parallel.cache import characterized_system  # noqa: E402

characterized_system()
done = time.monotonic()
print(json.dumps({"import_s": imported - started, "characterize_s": done - imported,
                  "done": done}))
