"""Golden bytes: the ``--format json`` output of fixed CLI runs, frozen as
sha256 digests so that a change to the algorithms cannot silently change a
published table."""

import hashlib

import pytest

from fglthh.cli import main

GOLDEN = {
    "cohomology --flavor mu-moving --max-degree 20 -N 10":
        "77832273f537959a7835dde433dbd5196c0f77dd11e777192d81054891bf5a28",
    "cohomology --flavor mu-split --max-degree 20 -N 10":
        "8fc12f73a83a5ae12831f6eb82e50882ffcf83851f1242e7382d7ced784eadff",
    "cohomology --flavor bp --prime 2 --max-degree 10":
        "93d47a0fa901aabdba58018326bb33a6235ee16e7c7119018191b50ac7e406c6",
    "cohomology --flavor bp --prime 3 --max-degree 24":
        "c61db2fc7f06c6c3b20620d29c1f31bc10a04d9323060ae606506da07fbe9615",
    "cohomology --flavor bp --prime 5 --max-degree 64":
        "3bc44a722f8da08fc481ce193495074fec02624eeedf79db72e6ab94b6169cfd",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_json_bytes(capsys, command):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
