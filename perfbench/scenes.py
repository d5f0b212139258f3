"""The scenes every workload runs, shared with the artifact generator.

One scene per (model, device) pair the paper evaluates: VGG11 on the phone
and on the TX2, AlexNet on the phone. The environments are picked so the
searched set holds a forking tree (vgg11/phone, alexnet/phone), a tree that
offloads at the root (vgg11/tx2) and offloading surgery splits.
"""

from typing import Tuple

SCENES: Tuple[Tuple[str, str, str], ...] = (
    ("vgg11", "phone", "4G (weak) indoor"),
    ("vgg11", "tx2", "4G indoor static"),
    ("alexnet", "phone", "WiFi outdoor slow"),
)


def artifact_stem(key: Tuple[str, str, str]) -> str:
    """File-name stem of one scene's artifacts, e.g. ``vgg11-phone-4g-weak-indoor``."""
    text = "-".join(key).lower()
    for char in "()":
        text = text.replace(char, "")
    return "-".join(text.split())
