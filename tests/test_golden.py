"""Golden bytes: the output of fixed CLI runs in each ``--format``, frozen as
sha256 digests so that a change to the algorithms or to the renderer cannot
silently change a published table, the names, verdicts and detail counts of
the consistency checks, or a sigma table.  The text and TeX entries use small
configurations."""

import hashlib
import json
import os

import pytest

from fglthh.cli import main, poly_json
from fglthh.fgl import LazardBasis

GOLDEN = {
    "bar-tor": {
        "json": "d93f81bfca2f67e1aa4748b85ccd99584fa6ccecc23c1c3c2524fb3bf9e15335",
        "text": "ddbddb4737ba5e901e5b387f8011cf9e21d397d8acfd21081178933bd839c0df",
        "tex": "e984f023d7ecf23b62dab68c25445d6037dab3e6256a74a4367e642470887619",
    },
    "bar-tor --flavor bp --prime 2": {
        "json": "12fd7660bec5b0b53f82e3984d74acdf7a6e33c9f318acb1976a6f9b001acf6f",
        "text": "fa18d7b69e7db6929d08a62e2ab4820b98635a36d008f861f23f15e1a89a7c2e",
        "tex": "74f371ce7d0d18fe3b143e77a9ae1a68c7328d61ef566e6371c6f288aeeb38e7",
    },
    "cohomology --flavor bp --prime 2 --max-degree 10": {
        "json": "93d47a0fa901aabdba58018326bb33a6235ee16e7c7119018191b50ac7e406c6",
        "text": "52fce1a5a2902e62b2622a31470c04decded56a03b9c69d78d58c94ac291efb3",
        "tex": "a1f5f7bc0a2704f8fc64cb5ed5b3445627c97447f55e38e5deece9d626723b7a",
    },
    "cohomology --flavor bp --prime 3 --max-degree 24": {
        "json": "c61db2fc7f06c6c3b20620d29c1f31bc10a04d9323060ae606506da07fbe9615",
        "text": "1b59d2234e0ff9f3743070503cae905096d965b0f8c8f8cbbb50ee21d6cb3a0c",
        "tex": "3b95a80d97404f74d7bd7ee24b1eaad25172d226977293013183e3d169c86985",
    },
    "cohomology --flavor bp --prime 5 --max-degree 64": {
        "json": "3bc44a722f8da08fc481ce193495074fec02624eeedf79db72e6ab94b6169cfd",
    },
    "cohomology --flavor mu-moving --max-degree 12 -N 6": {
        "text": "abb25be55e1828dbb50ff27235f3f34f3bfbf757076f90906c2394e89a4ffaf3",
        "tex": "fc3bdea8b778522c277220cae218b7cef746b1037c58c45470c115db223d69a6",
    },
    "cohomology --flavor mu-moving --max-degree 20 -N 10": {
        "json": "77832273f537959a7835dde433dbd5196c0f77dd11e777192d81054891bf5a28",
    },
    "cohomology --flavor mu-split --max-degree 12 -N 6": {
        "text": "b1dc139dac3cf06e56f08b940db9e12458a765741b14aacbe1a4fca1c413d5cc",
        "tex": "3f99ab981a8c5f28979378bee5c9ddc2baddef3597bc4b6448e5ca1dbb7f942e",
    },
    "cohomology --flavor mu-split --max-degree 20 -N 10": {
        "json": "8fc12f73a83a5ae12831f6eb82e50882ffcf83851f1242e7382d7ced784eadff",
    },
    "de-rham --max-degree 10 -N 5": {
        "json": "e084097cb59986ee168f4d9ec1d332942ae4e9506f02c7552e1a29a213c07f84",
        "text": "237fb09097673ab32e0882ce5a095bd97eba010addd7568d880cbaee33ba54c6",
        "tex": "00921f9faf82c92ae5dae75815e595e655f5e83c40d1fbe6e9845538a42bee33",
    },
    "de-rham --max-degree 14 -N 12": {
        "json": "f17e08ce218f87ef03109e187d9dd3053249adca1a1751feca4f813a0cf18c38",
    },
    "de-rham --weights 1,2,3 --max-degree 14": {
        "json": "3da011713b8da6f9b80215749784e5274a582c9b1a93f7c04254bbf75daca315",
        "text": "6693080b7a780ee15f38910a9f8056c474913d1b584397a9ac14a041cdddb8e4",
        "tex": "18902dab4a19940929a63d2a98112345758aec5f2bd4a016fbdb719415988cde",
    },
    "de-rham --weights 1,2 --max-degree 12": {
        "json": "96743b5e298269fe1c5eb6966d8ea55deb31289b13ccb58e2d0dd96683e23643",
        "text": "cc289d694d7a8ee34f72221fba5a326f446300414c8b65f4233dbbaa79470297",
        "tex": "0801a5f6f14c90fe9592d98c6b5feee3e50f933fbe88ef1a1a14c5f3f461a283",
    },
    "sigma --flavor bp --prime 2 --max-n 7": {
        "json": "4ef828d441dd19f5c583b7db7fc37a525536ef63ac7b3e49ec7f964b74257d6e",
    },
    "sigma --flavor bp --prime 3 --max-n 4": {
        "json": "a942b9a5ecd52193a777cd8dd2ba625b4f64bccaf951f0f4e3b560c252d8ab5a",
        "text": "0352e97ff36de4e80c65230faca5e43c06d5a0ee8f88475026fcdb52b1cb02fe",
        "tex": "5f665f49ff8f0ed33e37a0deb599be1ad8d8771bb2ba50d1908f7f739af42283",
    },
    "sigma --flavor bp --prime 3 --max-n 7": {
        "json": "cdb54776372c07fa780bcaf065522155d8c934c189c75f7ccbeea2ac8e4cdb66",
    },
    "sigma --flavor mu-moving --max-n 8 -N 8": {
        "json": "dd9848966d4fdd77d26635a58b0889cb2cec514e3cbbbfc0c04c50b4dae95c3b",
        "text": "66ab16bd7f74ac3296ba52618495a637504dae0ac8de4009954d03ea8061e9fc",
        "tex": "699651e2d72d0b4136609c4ddf4026eb5fd7d905bab56fd0b6ac254125979e3e",
    },
    "sigma --flavor mu-split --max-n 12 -N 12": {
        "json": "6db6edaa58fdd95eee85a709c404c414946ce58a09f2f19e4325ed45d3f26316",
    },
    "sigma --flavor mu-split --max-n 4 -N 4": {
        "json": "138ab25d633a592798eb943cdee74b5cc345c513bd58b038f1a0f8ab758a9cdd",
        "text": "42a40e9bb0053c4d937709d7f6a759b62c1041111850a4b01693dc54394671bc",
        "tex": "643e6b2e492a08dde1b6e294365b5c3d07ca74b437d0c51d99b43c486fe573c8",
    },
    "sigma --flavor mu-split --max-n 8 -N 8": {
        "json": "0eee120e575b289bfa7b8b8076a884707581b80e1cc8626d46101cbd5953aaa3",
        "text": "1ac773b094090f8fab14bd81315954c1670dadfac8b09eb989c7f0792f01df1c",
        "tex": "d9083d4e64ce687cf791c027baae1e137b0e51d36ad84139c9d46783d0acb5cd",
    },
    "structure-maps --flavor bp --prime 2 --max-n 4": {
        "json": "0218afae46b261e24fc72254fd0cd4476ab699e6f91827086b654b2afcb5bb95",
        "text": "9632d1c7dda31f0a69d8951e36ac588bc4b69e80cdcf1255773adb45df444681",
    },
    "structure-maps --flavor bp --prime 3 --max-n 3": {
        "json": "16187bf74de5ee705a65c6855668e974de67031b59a81cbad5979712ea70249d",
        "text": "9df171b92562ee6df84002dca716c4b15977bf8f1143aacf1c59e6822092fd2c",
    },
    "structure-maps --flavor mu-moving --max-n 12 -N 12": {
        "json": "ebc23083da77a7963b07e0a71ff5a0bdc0424d06c30411bc4cc72e1d2b4dd48d",
    },
    "structure-maps --flavor mu-moving --max-n 4 -N 4": {
        "json": "be19db80a27a710af1621e06d9236816280b4da6b896a9bcc7d574d1f487ad65",
        "text": "669e51ded0994432eb80ed5367a0b334126a355ed113c27fe95aeabb1aa54e6a",
        "tex": "de762a71c21a470f8a2322979fe623a0d0f55bb4d41600d6066e7af1a7d65747",
    },
    "structure-maps --flavor mu-moving --max-n 8 -N 8": {
        "json": "f4cb21948058721f64d51aa67666fe3024d94dcdf775313bc46d197f69346a6f",
    },
    "structure-maps --flavor mu-split --max-n 4 -N 4": {
        "json": "cb9f9c04d74cd6b1902ff6c29f65ca6c4ec6f4c4e98c41ac1d2d79109d87063a",
        "text": "4c03113ebf98be7396c59cda791afc4e3ae27414d9ab3fd5f26525e399762f2c",
        "tex": "540efa1603a9d672d0ad49ba241e01791c7aab57ff951a58464ab3e88e5f17c9",
    },
    "structure-maps --flavor mu-split --max-n 8 -N 8": {
        "json": "06d9c074322400f8325c00e16527a44006597e2e7c7212e789e05f76050940a6",
        "text": "8aafd75250d1c2fe256ec3ff8e373fee09282576848691f773383805a7c486d8",
        "tex": "7237aefeee32fbde5144e658723a97e6bac08f212c01cf63ad66c6f6dd3d69bd",
    },
    "verify --flavor bp --prime 2 --max-degree 10": {
        "json": "73729f4f272efc9dbcd0743c7b7fda716cfb5f78c3c8cd1e31db2fa214051659",
    },
    "verify --flavor bp --prime 3 --max-degree 24": {
        "json": "e5af131c2b2511eb1d3fb2efc4667b14527061ad9278ffe95a6f7ebd86d37165",
        "text": "f79b68a80bea1a484fe4509402ca1c9cf49d365757ea7462bfc7e0f17d90629a",
        "tex": "f453a8927b1368f0d9dc71eb1ba1f41ff810666fde2cef14aaccf4ebce9487ed",
    },
    "verify --flavor bp --prime 5 --max-degree 64": {
        "json": "40b7a7f7e9c0b44437cd87df3945833c00898246a983a2acf2902e8c66953ee8",
    },
    "verify --flavor mu-moving --max-degree 10 -N 5": {
        "json": "b8c6351a313966e132d20d576d568529bfac483dabe2d084548ba864e5f694f6",
    },
    "verify --flavor mu-split --max-degree 10 -N 5": {
        "json": "2c35c4f2bf9f25366b2e217dd9188ab523914607338b01009b8b8b2567ca6e78",
        "text": "ad9b4a709d93955c6cb6c26b2ba66d500b279e470e1c548eb4c77d70764e1adf",
    },
}


# the integral generators x_1..x_N in the m basis for N = 16 and 18, each
# rendered by poly_json and the list dumped with sort_keys; x_n for n > 4 is the
# representative of the indecomposable modulo the decomposable lattice
LAZARD_16_X_IN_M = "6c9075cce214a569587ea746d5cdd895859b34fa49ad2878a986d3744ebf82b2"
LAZARD_18_X_IN_M = "6f82356541d4c6210f3a885ee7a3b15b957163a063d9a6307d9c12ec2972cbc4"


# The frontier corpus: mu-moving and mu-split cohomology at the degrees where
# the Smith reduction does its work, each pinned twice.  The first digest is
# the JSON bytes.  The second covers the groups alone: the document with
# every "generators" key dropped, dumped with sort_keys.  The printed
# generator lifts depend on the pivot order of the Smith forms and the groups
# do not, so a change of elimination may re-record the byte digest on
# purpose, but never the groups-only one.
FRONTIER = {
    "cohomology --flavor mu-moving --max-degree 24 -N 12": (
        "50967c14e9d4d1a6deb067124b4dd214ec5536b319c736df5b06eed8843f06d5",
        "9e8e04ee659f4cc4863cfbbbcac076350ed9ddb157052c78ad1378d81ebfcac8"),
    "cohomology --flavor mu-split --max-degree 24 -N 12": (
        "d91550d841e3a778b56693acd82fff3fc86823cbcea74ee777ebe51a400b1699",
        "3bffdc5febac2218dc3bf02ff99ab4cfb4ef43f393f615b77c695419603e1a5d"),
}

# the same pins past d=24, which take from seconds to about a minute each,
# so they run only with FGLTHH_FRONTIER=1 (``pytest -m frontier`` selects them)
FRONTIER_OPT_IN = {
    "cohomology --flavor mu-moving --max-degree 28 -N 14": (
        "4c10d646f43e34f251743c7079ad48c162fd126e44644fd77a7621679ceb4666",
        "8cd830232c7889cdae2e63b28bf7ca2dae20fa768b3e4a35339778ad11360dd8"),
    "cohomology --flavor mu-moving --max-degree 30 -N 15": (
        "b0bd25661865af3cc9439a81b1cbb23c6f9b234470161c353f0c67e453b4e96d",
        "82643fbadc1ca6e25679c9eafb1b153cefc61dc8aca88ce00af4bde37ce8ad8f"),
    "cohomology --flavor mu-moving --max-degree 32 -N 16": (
        "f00266f424807fb6ffab02ec4b9d4a2ace9ce94f3ed700610f3a07f1e2956332",
        "148c27f750abf654ae2aa4af3bed763955acdb365dbc3243284f67fe1eb68bf2"),
}


def _commands(fmt):
    return sorted(command for command, digests in GOLDEN.items() if fmt in digests)


def _check(capsys, command, fmt):
    code = main(command.split() + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command][fmt]


@pytest.mark.parametrize("command", _commands("json"))
def test_golden_json_bytes(capsys, command):
    _check(capsys, command, "json")


@pytest.mark.parametrize("command", _commands("text"))
def test_golden_text_bytes(capsys, command):
    _check(capsys, command, "text")


@pytest.mark.parametrize("command", _commands("tex"))
def test_golden_tex_bytes(capsys, command):
    _check(capsys, command, "tex")


def _lazard_digest(N):
    basis = LazardBasis(N)
    doc = json.dumps([poly_json(basis.x_in_m[n]) for n in range(1, N + 1)],
                     sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_golden_lazard_16_generators():
    assert _lazard_digest(16) == LAZARD_16_X_IN_M


def test_golden_lazard_18_generators():
    assert _lazard_digest(18) == LAZARD_18_X_IN_M


def groups_only(doc):
    if isinstance(doc, dict):
        return {k: groups_only(v) for k, v in doc.items() if k != "generators"}
    if isinstance(doc, list):
        return [groups_only(v) for v in doc]
    return doc


def _check_frontier(capsys, command, digests):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    groups = json.dumps(groups_only(json.loads(out)), sort_keys=True)
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(groups.encode()).hexdigest()) == digests


@pytest.mark.parametrize("command", sorted(FRONTIER))
def test_frontier_bytes_and_groups(capsys, command):
    _check_frontier(capsys, command, FRONTIER[command])


@pytest.mark.frontier
@pytest.mark.skipif(os.environ.get("FGLTHH_FRONTIER") != "1",
                    reason="set FGLTHH_FRONTIER=1 to run the d >= 28 pins")
@pytest.mark.parametrize("command", sorted(FRONTIER_OPT_IN))
def test_frontier_opt_in_bytes_and_groups(capsys, command):
    _check_frontier(capsys, command, FRONTIER_OPT_IN[command])
