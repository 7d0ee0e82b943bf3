"""Golden bytes: the ``--format json`` output of fixed CLI runs, frozen as
sha256 digests so that a change to the algorithms cannot silently change a
published table, the names, verdicts and detail counts of the consistency
checks, or a sigma table."""

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
    "verify --flavor mu-split --max-degree 10 -N 5":
        "c78d70ed4458b4f15c20573a837fb9f807be21a253630be1e0574bcb63939bd2",
    "verify --flavor mu-moving --max-degree 10 -N 5":
        "f2302ace3c1a60e66c6ad0e08689cfe8fcda7c60c36bb55a481a874ba54a3182",
    "verify --flavor bp --prime 3 --max-degree 24":
        "e5af131c2b2511eb1d3fb2efc4667b14527061ad9278ffe95a6f7ebd86d37165",
    "de-rham --max-degree 10 -N 5":
        "e084097cb59986ee168f4d9ec1d332942ae4e9506f02c7552e1a29a213c07f84",
    "sigma --flavor mu-moving --max-n 8 -N 8":
        "dd9848966d4fdd77d26635a58b0889cb2cec514e3cbbbfc0c04c50b4dae95c3b",
    "sigma --flavor bp --prime 3 --max-n 4":
        "a942b9a5ecd52193a777cd8dd2ba625b4f64bccaf951f0f4e3b560c252d8ab5a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_json_bytes(capsys, command):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
