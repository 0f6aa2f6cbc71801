"""Print the sha256 of every artifact of every built-in preset.

Each preset runs through `nlfront.cli.run` into a temporary directory; each
line reads "preset exit-code file digest".  Diffing the output of two
checkouts shows whether a change keeps every preset byte-identical:

    PYTHONPATH=src python3 scripts/preset_digest.py > digests.txt
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from nlfront import cli

with tempfile.TemporaryDirectory() as tmp:
    for name in cli.presets():
        cfg, out = Path(tmp) / f"{name}.json", Path(tmp) / name
        cfg.write_text(json.dumps({"preset": name}))
        with contextlib.redirect_stdout(io.StringIO()):  # its status line names tmp
            code = cli.run(cfg, out_dir=out)
        for path in sorted(p for p in out.iterdir() if p.is_file()):
            print(name, code, path.name, hashlib.sha256(path.read_bytes()).hexdigest())
