"""Byte-level pins of the family-driven outputs: every verify grid, limits
table, density sequence, the conjecture43 table and the family scripts.

Each case pins the SHA-256 of stdout, so a refactor of the family records
cannot change a single printed byte unnoticed; verify also pins its stderr
summary line.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from normdeg.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


VERIFY = {
    "sdp": ("490265bba2540f0d33ffcd7277e634ca4ee152cb6b7ab172a6c4d90eac13109a",
            "130 comparisons, 0 mismatches, 0 tuples beyond cap"),
    "dihedral": ("b19955fd225853cc326dd898cafe86e08c24c836b8b38231047f92b4c67ab622",
                 "116 comparisons, 0 mismatches, 0 tuples beyond cap"),
    "zm": ("d63cfdf51c7dc149b0ec620a9d7d4272fb2d4c49a55d5f456e4183055362e731",
           "1064 comparisons, 0 mismatches, 0 tuples beyond cap"),
    "mpn": ("73168e9231eb245a2d5e5d4f772662320b368d583d09dae2e28715af8d31a837",
            "22 comparisons, 0 mismatches, 16 tuples beyond cap"),
    "dihedral2n": ("bd217e2668bf4a067fd91a18af1f083f3f53e02fb9896cc443a1adc8ac4fde04",
                   "16 comparisons, 0 mismatches, 0 tuples beyond cap"),
    "quaternion2n": ("ea58e6dd8b4a6105e9d4806717922f8d93079023ebfefd06e6a99d1fca12f08e",
                     "14 comparisons, 0 mismatches, 0 tuples beyond cap"),
    "semidihedral2n": ("0abdc39195d0b408956ac804f7931055bb8432263b47c888721610bdc06938fe",
                       "12 comparisons, 0 mismatches, 0 tuples beyond cap"),
    "abelian2": ("65d7aac7a2e9167a519e9d798acf4c02d5098865c70c076ccff4b801ff0dc1a3",
                 "205 comparisons, 0 mismatches, 14 tuples beyond cap"),
}

TABLES = {
    ("limits", "--family", "mpn"):
        "c2d991014728811727eb4206f6cb84b2d2e9da7de78e21e47b56fc4bc7718f46",
    ("limits", "--family", "dihedral2n"):
        "d1d7e690bdd60d7ab4d0b60d80e7f1a4049822561fb9889a97ad18403a4bffe3",
    ("limits", "--family", "quaternion2n"):
        "83d4e88148269380710a43cb8454b3ce77ab1371388c05e9dcfd0f66902d6ee0",
    ("limits", "--family", "semidihedral2n"):
        "dcd4f11ba813d1aac6a08a61903798b4ee766ddef19f45229b737881277cf1f5",
    ("limits", "--family", "mpn", "--p", "5", "--n-max", "30", "--decimals", "6"):
        "63073c0e69b4c00c8c450019345b70f05e9be5a4bc5a7a0f29bd576e640b0ed3",
    ("density", "--target", "0"):
        "ebe192bd8982807f1f55ddaa32146276a75ea619ed76abb674d945dcff6e2567",
    ("density", "--target", "1"):
        "87bca3e2b9026bb3b64702be6b48eb749e2c476557887612125217d7bcc1aa8c",
    ("density", "--target", "2/3"):
        "fb59ec4e56fca5e0197787cd0b519a3dd73c0064169ce1527847d8dfc3b68be8",
    ("density", "--target", "3/7"):
        "c1bce7f8a69c74ff0c5931bc8288d19b3b937a149187d1b6f2a5b023b1c4e834",
    ("conjecture43",):
        "a02dd57964c7c768a2c8cd927deec30bb685a7951aeebdb981e415500f84982c",
}

SCRIPT_OUTPUTS = {
    "degree_survey": "1f7d574f5c655a972c8ba8f12745e354ead738fdb72ea81be420802a135bc975",
    "convergence_race": "4a7ff349911ff611c4de8735ac8e8135f3ac5648768b8fe97716e98d511e371c",
    "bound_tightness": "913132a81ee729549eb56518d903006f32c4672529bd8141cb1f9a9bcab2058c",
}


@pytest.mark.parametrize("family", VERIFY)
def test_verify_grid_output(capsys, family):
    assert main(["verify", "--family", family]) == EXIT_OK
    out, err = capsys.readouterr()
    assert (sha256(out), err) == (VERIFY[family][0], VERIFY[family][1] + "\n")


@pytest.mark.parametrize("argv", TABLES, ids=" ".join)
def test_table_output(capsys, argv):
    assert main(list(argv)) == EXIT_OK
    out, err = capsys.readouterr()
    assert (sha256(out), err) == (TABLES[argv], "")


@pytest.mark.parametrize("name", SCRIPT_OUTPUTS)
def test_script_output(capsys, name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    assert sha256(capsys.readouterr().out) == SCRIPT_OUTPUTS[name]
