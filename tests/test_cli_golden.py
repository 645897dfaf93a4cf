"""Golden CLI transcripts: stdout digests and exit codes of the verbs, and
digests of the files they write. The automorphism-group verbs were recorded
from the version that listed every automorphism by backtracking; the
stabilizer-chain search must print the same bytes. The rest were recorded
before the builders, the psi checks, the catalog table and the group
printers were each merged into one."""

import hashlib
import os

import pytest

from sqk.cli import run

SPECS = {
    "antipodal8": ["antipodal", "8"],
    "dihedral6": ["dihedral-quandle", "6"],
    "conj_s3": ["conj", "sym", "3"],
    "conj_d4": ["conj", "dihedral-group", "4"],
}
COMMANDS = {
    "aut": ["aut"],
    "aut-symmetric": ["aut", "--symmetric"],
    "orbits-aut": ["orbits", "--group", "aut"],
    "decompose-aut": ["decompose", "--group", "aut"],
}
# (exit code, sha256 of stdout with the input path replaced by "<file>");
# dihedral-quandle 6 has no rho line, so the symmetric verbs exit 2
GOLDEN = {
    ("antipodal8", "aut"): (0, "f9e9ee8708124dd2a388bc4b5f69c46d5796b5de08fd5454ed2fb045b383d14e"),
    ("antipodal8", "aut-symmetric"): (0, "da398d8872c7ac83c0cad8529e2dcb864f457f69e4bd2038c5340d52ff1b324f"),
    ("antipodal8", "orbits-aut"): (0, "255edb8aff96c737837fbe30434c3224557519df8cb3156b5f25aac5de0075f8"),
    ("antipodal8", "decompose-aut"): (0, "f0a812b10a3287a14cfac9f02d7807c13a89b8cdf399c2600ef32a6e151718e7"),
    ("dihedral6", "aut"): (0, "6bff938950b640545c4c8fb32e136f511d14d64e057d930a0d48c7dce1704649"),
    ("dihedral6", "aut-symmetric"): (2, "7822c6f4706f284150a66f7906d615a8c10af062ba7b88a77e7a3e9eefe98c4a"),
    ("dihedral6", "orbits-aut"): (0, "9497ede8debc4e442c7c6652329f2089bd5ff95e2e00597279ffe70ef24c0e0a"),
    ("dihedral6", "decompose-aut"): (2, "7822c6f4706f284150a66f7906d615a8c10af062ba7b88a77e7a3e9eefe98c4a"),
    ("conj_s3", "aut"): (0, "1130c41ab084a9832e0bbf1518db773f5ea1fe43b8d51743c07592de73bbf09c"),
    ("conj_s3", "aut-symmetric"): (0, "64b7b8d9d6ff3e08cb1eddee7c81e2380be1c69754827e111752a4647cfd89bb"),
    ("conj_s3", "orbits-aut"): (0, "96d7e02bd5f35ec8255ac8d4b636020c8183a72b116fd8a3b4936f6f100928c1"),
    ("conj_s3", "decompose-aut"): (0, "20ff14c712da9d94da8a565885c4c8fe2b31a15c711f85b2939cce517cbd320d"),
    ("conj_d4", "aut"): (0, "3ef048617e967ee4aa2468b8e8f258ac1f98ec6f6247cb5a4fad91b03bce0b94"),
    ("conj_d4", "aut-symmetric"): (0, "fd3753f216c55cb76dce58d554ce0af6cf31ea80ad0b56ea0156f017ab0958c5"),
    ("conj_d4", "orbits-aut"): (0, "49c4465be12d1b9ba140ca9183919db88712cd803967230684ba8c92e618e269"),
    ("conj_d4", "decompose-aut"): (0, "0b5ffe6d9dec71bf5b7c8e0946a7e50e1839def28cce6d7a31ecba570972c2b8"),
}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_aut_verbs_match_golden_digests(tmp_path, spec):
    path = str(tmp_path / f"{spec}.qnd")
    assert run(["catalog", *SPECS[spec], "-o", path])[0] == 0
    for name, (verb, *flags) in COMMANDS.items():
        code, text = run([verb, path, *flags])
        digest = hashlib.sha256(text.replace(path, "<file>").encode()).hexdigest()
        assert (code, digest) == GOLDEN[(spec, name)], name


# run on every SPECS file, as is decompose (inn) with --emit-prs; each
# presentation written is then built at every level
INPUT_COMMANDS = {
    "check": ["check"],
    "inn": ["inn"],
    "orbits-inn": ["orbits"],
}
# a rack that is not a quandle: z = 1 centralizes H = {0, 2} in Z_4 (C1)
# but does not lie in it (C2 fails)
Z4_RACK_PRS = """presentation 1
group 4
0 1 2 3
1 2 3 0
2 3 0 1
3 0 1 2
orbit 0: H = 0 2 ; z = 1 ; r = 0 ; kappa = 0
"""
CATALOG = {
    "dihedral-quandle 5": ["dihedral-quandle", "5"],
    "antipodal 6": ["antipodal", "6"],
    "conj quaternion": ["conj", "quaternion"],
    "conj cyclic 4": ["conj", "cyclic", "4"],
    "quaternion": ["quaternion"],
    "cyclic 5": ["cyclic", "5"],
    "dihedral-group 3": ["dihedral-group", "3"],
    "sym 3": ["sym", "3"],
    "paper-example": ["paper-example"],
    "cyclic": ["cyclic"],
    "cyclic x": ["cyclic", "x"],
    "nonsense": ["nonsense"],
    "conj": ["conj"],
    "conj antipodal 4": ["conj", "antipodal", "4"],
    "quaternion 1": ["quaternion", "1"],
    "antipodal 5": ["antipodal", "5"],
    "sym 5": ["sym", "5"],
}

# (exit code, sha256 of stdout, or of the file, with the directory replaced
# by "<dir>")
TRANSCRIPTS = {
    "antipodal8 check": (0, "bc8f74e99052ff4801be8c4dc0fd755ab8d14be3f69332c79ea00852da6a201e"),
    "antipodal8 decompose-inn": (0, "800709668ec5ea66ade289ed74a79771538a265eae6c3f7a8e5ba6164b701f60"),
    "antipodal8 inn": (0, "8a2e8ee5c39b3c252ea3f0ab7817e2a6455a7b6dbff4a75c9fd1eb83a4474b23"),
    "antipodal8 orbits-inn": (0, "aa8921d3105b77e833ae41644e2d02abed4c7eaf328b5c283d628ccf749572dd"),
    "build emitted antipodal8 quandle": (0, "d85ad7c1375c88ad4b06d9a5154a6d49aff5c995ead6313d3bed2559e72daf5c"),
    "build emitted antipodal8 rack": (0, "d85ad7c1375c88ad4b06d9a5154a6d49aff5c995ead6313d3bed2559e72daf5c"),
    "build emitted antipodal8 symmetric": (0, "be98afeceac947fc5d80b56ac6440ef40263e0f9ea06a1484244ff0545a3f053"),
    "build emitted conj_d4 quandle": (0, "5259957562439a4d2c17aa1d751ca5a5f2d004aae431ee481e0a55ffd8dc11fc"),
    "build emitted conj_d4 rack": (0, "5259957562439a4d2c17aa1d751ca5a5f2d004aae431ee481e0a55ffd8dc11fc"),
    "build emitted conj_d4 symmetric": (0, "53eb62c533865ed3d94f843792e1c7903f6c389dec827e200443d877014667e6"),
    "build emitted conj_s3 quandle": (0, "08b6bde9a4f886572ba6daccc7e978baefbb49c62d8f755ff3051a5c8e7ffdda"),
    "build emitted conj_s3 rack": (0, "08b6bde9a4f886572ba6daccc7e978baefbb49c62d8f755ff3051a5c8e7ffdda"),
    "build emitted conj_s3 symmetric": (0, "0462e2d945cab43e504b803cf91ef599f50e7758b5f796ccdb431f9995d4a941"),
    "build paper-example quandle": (0, "b59568f7ebe7390a21d532c46e919493c1176e1a6712b90e2e3231a0f893e5c5"),
    "build paper-example rack": (0, "b59568f7ebe7390a21d532c46e919493c1176e1a6712b90e2e3231a0f893e5c5"),
    "build paper-example symmetric": (0, "7ae3953ae2510882ab5933a73813274c394050a61eed337f8f1543b6ccd6ea76"),
    "build z4-rack quandle": (1, "125b0c98ec9192722ef873d73bfbcda8bf82f52869342f54130768e216abb484"),
    "build z4-rack rack": (0, "c871dfcc80bf5752e2804908c360213f40928babe7fefde2b2c14fb1ac603ccf"),
    "build z4-rack symmetric": (1, "e866773fcc2e0fc63abb5fc17c83ef0ef044c76484cb2111c4a6d80f7a64b0cd"),
    "catalog antipodal 5": (2, "0daab97bfc33ca91ac922eca9221d6ccb2e01acecb7395a320cad6d1706a56d1"),
    "catalog antipodal 6": (0, "f4f4f000cbde87b10ae1f111b210ef9eb1b052bc515ac9c0651c139faa664b87"),
    "catalog conj": (2, "2e662de46586980c0302196a047aa256f917284b294010d7674b880ef360e790"),
    "catalog conj antipodal 4": (2, "8d3d7fd8d5d2779a1a0b05ed181d2580a5b2cd587d343b7f11e0bb3ffc45371a"),
    "catalog conj cyclic 4": (0, "748a6b68bfaa1f8779c7a806be3856355d164b10592fcd1f0f3a848103ae12c5"),
    "catalog conj quaternion": (0, "63de4a1820a62da219ba26a420d168ef0359fb0712421795e00269c0de7fb43a"),
    "catalog cyclic": (2, "b76c413a00acf4514468bc7dd36543af63d4648b41124d6e294f0d330f78d22c"),
    "catalog cyclic 5": (0, "9b61930dc2aae2fd7f7d34ff2f60504ec54ae3f5067aeafeebb0d25ae1119bfe"),
    "catalog cyclic x": (2, "a3f21d4d18e644bd2063267bb2346e85a590b1d21d7a877c93638c7d218c8527"),
    "catalog dihedral-group 3": (0, "d0982318ae67d18d68feea33b3a495812f2deb1c6656f7f48464a0dd8f318c7f"),
    "catalog dihedral-quandle 5": (0, "d852320dd0aaf1b30035b0d67e7a5061d22ed18e7dcaa89fb47e8ddaaccbaf99"),
    "catalog nonsense": (2, "56d447c8cea78ac8ade072056d0c85c9db49e16f461967c0e2e5a5601b237be7"),
    "catalog paper-example": (0, "cf0bcffe354c7384174f2cf367f18f2e10b10c16b9ff135a31175d2de8fab0e9"),
    "catalog quaternion": (0, "3b9f794472f2efd433de785f2bf17d451ad7729da2237b88d01974750938b006"),
    "catalog quaternion 1": (2, "e39b740536e3ce1bef37cddb2e034cab408510bd2e08a4b52317faf754b852c5"),
    "catalog sym 3": (0, "a623746b2d8cc774250053bc3118036e74e2c1c22218f1b8b7ac46d3caa78fc0"),
    "catalog sym 5": (2, "7175950897bd3dbb8674d4151d74d9df9c3afa2566e32b04c2378dce40bedbfa"),
    "conj_d4 check": (0, "bc8f74e99052ff4801be8c4dc0fd755ab8d14be3f69332c79ea00852da6a201e"),
    "conj_d4 decompose-inn": (0, "362d94b3c35c98697115f11f9305e467eeaf809d9e4ee38faf1854513e517087"),
    "conj_d4 inn": (0, "9824bb0333b637abea0407ea2830cca9cebdbe20959d709bbd1ccfcaa746014b"),
    "conj_d4 orbits-inn": (0, "eb133c383d6707cfd3f216545037452fec52e4d1c0848e0d03ffa5cefcdb59be"),
    "conj_s3 check": (0, "96ca66d23f724ebdd6d4149d65ce2e86455f77910292e4859c60ac2eb5fc8d5e"),
    "conj_s3 decompose-inn": (0, "63020a8ade57d6c5042804d6bde29fe46137cb2c5f8d952e09a50de52f76d800"),
    "conj_s3 inn": (0, "7bef64749e2a5ebf96b8196f1e5df9987cfaec9da382b05489c86f528e74fea5"),
    "conj_s3 orbits-inn": (0, "fe5ef11a5ea60fba82ea221f4373b8dff56f0784b7558bba453761f54aa2f4b3"),
    "dihedral6 check": (0, "279e40f6f4f439bda93d22ad78ccc7689173abb2dfe79d73a551ccb4396d9f27"),
    "dihedral6 decompose-inn": (2, "25a4833a9af0e133d3d9fdce892420d518a8b8d941ddf4b3c3dc7f4c0b5b87c2"),
    "dihedral6 inn": (2, "25a4833a9af0e133d3d9fdce892420d518a8b8d941ddf4b3c3dc7f4c0b5b87c2"),
    "dihedral6 orbits-inn": (2, "25a4833a9af0e133d3d9fdce892420d518a8b8d941ddf4b3c3dc7f4c0b5b87c2"),
    "file: antipodal8.prs": (0, "01aefceeab2438720d5f272cedf777597aefcadbdf7528609dddc18f64f18963"),
    "file: conj_d4.prs": (0, "86133864ac469ff6bb48541f731b0ec6e246cb6717ceb29c340db4bc0f8571c2"),
    "file: conj_s3.prs": (0, "cc42c5ce03fd1cc8e9aaebe3e7daeb332de343178e339facf380a19b6995c83d"),
}


def _digest(code: int, text: str, tmp_path) -> tuple[int, str]:
    text = text.replace(str(tmp_path), "<dir>")
    return code, hashlib.sha256(text.encode()).hexdigest()


def _transcripts(tmp_path) -> dict[str, tuple[int, str]]:
    """(exit code, stdout digest) of every golden call, by name; files
    written by the calls are digested under "file: <name>"."""
    got = {}

    def call(name, argv):
        got[name] = _digest(*run(argv), tmp_path)

    prs = {"paper-example": str(tmp_path / "paper.prs"),
           "z4-rack": str(tmp_path / "z4.prs")}
    assert run(["catalog", "paper-example", "-o", prs["paper-example"]])[0] == 0
    with open(prs["z4-rack"], "w", encoding="utf-8") as fh:
        fh.write(Z4_RACK_PRS)
    for spec, argv in sorted(SPECS.items()):
        path = str(tmp_path / f"{spec}.qnd")
        assert run(["catalog", *argv, "-o", path])[0] == 0
        for name, (verb, *flags) in INPUT_COMMANDS.items():
            call(f"{spec} {name}", [verb, path, *flags])
        emitted = str(tmp_path / f"{spec}.prs")
        call(f"{spec} decompose-inn", ["decompose", path, "--emit-prs", emitted])
        if os.path.exists(emitted):
            with open(emitted, encoding="utf-8") as fh:
                got[f"file: {spec}.prs"] = _digest(0, fh.read(), tmp_path)
            prs[f"emitted {spec}"] = emitted
    for source, path in sorted(prs.items()):
        for level in ("rack", "quandle", "symmetric"):
            call(f"build {source} {level}", ["build", path, "--level", level])
    for name, argv in CATALOG.items():
        call(f"catalog {name}", ["catalog", *argv])
    return got


def test_build_and_catalog_verbs_match_golden_digests(tmp_path):
    got = _transcripts(tmp_path)
    assert sorted(got) == sorted(TRANSCRIPTS)
    for name in TRANSCRIPTS:
        assert got[name] == TRANSCRIPTS[name], name
