"""halidon needs nothing outside the standard library to run a session."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SESSION = """
import sys
before = set(sys.modules)
from halidon import (
    choose_omega, dft_decrypt_message, dft_encrypt_message, gen_unit_table,
    hgr_decrypt_message, hgr_encrypt_message, keygen,
)
pub, priv = keygen((607, 809), (1, 1), m=202)
omega, _ = choose_omega(pub, seed=1)
table = gen_unit_table(pub.n, seed=2)
text = "STDLIB ONLY: 0-9."
assert dft_decrypt_message(priv, dft_encrypt_message(pub, omega, text)) == text
ct = hgr_encrypt_message(pub, omega, table, text)
assert hgr_decrypt_message(priv, table, ct) == text
for name in sorted(set(sys.modules) - before):
    print(name)
"""


def test_a_session_of_each_scheme_imports_only_the_stdlib():
    result = subprocess.run(
        [sys.executable, "-c", SESSION],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "halidon.protocol" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"halidon"}
    ]
    assert foreign == []
