"""Run manifests: config digest, seeds, and output file hashes as JSON.

`hashlib` is imported inside the functions that hash, so importing this
module (and the CLI) does not load OpenSSL.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ARTIFACT_VERSION = "0.1.0"


def file_sha256(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    config_digest: str
    master_seed: int
    task_seeds: dict
    artifact_version: str = ARTIFACT_VERSION
    created: str = ""
    outputs: list = field(default_factory=list)  # [{"path":..., "sha256":...}]

    def digest(self) -> str:
        """Digest over the reproducible content (timestamps excluded)."""
        payload = {
            "config_digest": self.config_digest,
            "master_seed": self.master_seed,
            "task_seeds": dict(sorted(self.task_seeds.items())),
            "artifact_version": self.artifact_version,
            "outputs": sorted((o["path"], o["sha256"]) for o in self.outputs),
        }
        import hashlib

        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def add_output(self, path):
        self.outputs.append({"path": str(Path(path).name), "sha256": file_sha256(path)})

    def write(self, path, reproducible: bool = False):
        if not self.created:
            self.created = "1970-01-01T00:00:00Z" if reproducible else time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
        data = asdict(self)
        data["digest"] = self.digest()
        with open(path, "w") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")
