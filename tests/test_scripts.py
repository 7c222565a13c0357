"""Smoke tests of the scripts under ``scripts/``, run as separate processes."""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

from numpy._core import _multiarray_umath as numpy_umath

ROOT = Path(__file__).resolve().parents[1]

SUMMARY = """\
== coupled dot-cavity device ==
Q factor                     : 51490.2
coupling regime              : strong  (g=9.4 vs (kappa+kappa_s+gamma)/4=7.725)
dressed energies (ueV)       : 1333588.186, 1333603.814
dressed splitting (ueV)      : 15.6281
on-resonance reflectivity    : coupled 0.9509, empty 0.8233

== conditional phase ==
arg-convention max           : 0.06069 rad at -6.210 ueV
fringe-readout max           : 0.12145 rad
fringe-readout max, b=0.7    : 0.04595 rad

== mode-matching background ==
intrinsic empty-cavity dip visibility : 0.1738
background matching visibility 0.15  : b = 0.0268

== outcoupling sweep (zero detuning) ==
kappa_top  max_phase  reflectivity  feasible
      1.2     0.0607        0.9509  false
     10.0     0.5501        0.6565  false
     24.7     2.0161        0.3465  true
     37.6     3.1416        0.1888  true
     50.0     3.1416        0.0975  true
"""


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_summary_report_output(tmp_path):
    done = run_script("summary_report.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == SUMMARY


# SHA-256 of every file that scripts/cli_outputs.py writes. The data files
# are byte-identical from run to run and across BLAS thread counts; a
# reviewed change to an output's bytes updates its digest here.
CLI_OUTPUT_DIGESTS = {
    "design/design.csv": "71bd64f84070e6e5d3accb60ca794dd9adc0e2c674d7b686ea5962470ea7fecc",
    "design_narrow_peak/design.csv": "5d2fe1133003b3d7e39313dc41d3ae019ef41ce8d52045f7ca8dc50247c623a2",
    "design_uncoupled/design.csv": "3ce1298bf529100c51ee207f46a71ecc7ff522d83ff58c21cf5fd6e18727f241",
    "design_underflow/design.csv": "855bd7761ff813fea53f51adc6659dbe69d303794fbe2b8033ad1f44adf32607",
    "design_wide/design.csv": "bb9991cbb084fd2a671845e11179ca3ac2bee87fdd1825747ccd11e0869bbce4",
    "fit/fit_report.txt": "16333856ebdf37119566b54efe0c96c740d9f84c4d694c2d7b090137ca94706d",
    "fit_all_free/fit_report.txt": "9d6645cef44c997c88a8a6e3b0a8623ba083779443ddc9bc75b44ccbfc478933",
    "fit_background/fit_report.txt": "16a3a3af6588c9a0f4eefeb06bb1ca42668fbb571933bd94132c17849c7b8db9",
    "fit_beta/fit_report.txt": "16333856ebdf37119566b54efe0c96c740d9f84c4d694c2d7b090137ca94706d",
    "fit_joint/fit_report.txt": "3d4bd3c4c9f2e1670a239e9ce6f9de32bf298e691512a2cc99ebf30e1c9b6187",
    "fit_nonconverged/fit_report.txt": "a6c2129c0eeb3a8a13e7fa6309254e1c2c9edda18665491a8dd71ac5d40fd511",
    "fit_two_grids/fit_report.txt": "72e93b4d9920142ed4ba55ad9fd4b6dbee3ecce46446113080e45cc95b1f14c3",
    "phase/phase.csv": "cfb8ff656e2a7680bb521c0bf35d9d558bfc11130d560e112d73643916a6c231",
    "phase_coarse/phase.csv": "e12169b5de7a0bfe369e6b2e47c22c0b33bac99c6b45179d2d574b44d2e1a052",
    "phase_edges/phase.csv": "4efc47e97498850424c170438a4aa50607248d1b33d39b12d57ac09cdd296a78",
    "phase_noisy/phase.csv": "9ab96f1f76239e00202857d67a58c120cd8f12602cadf70b340ae321863faece",
    "run.cfg": "7fe663930d4888e010a2623ba0701135a20f2a6fb105d7e9a4ebe44c0899dfc2",
    "scan/manifest.csv": "9f407f99492c0a42830372fb74870f2f48fa8c14a9a2f1193f8803966ec6645f",
    "scan/scan_T19.0000K.csv": "b54c2903d5637c2b73eb39b3c3712fda061d50811f1b35a529a1351c890ca102",
    "scan/scan_T19.2500K.csv": "48b35e8988c151be26bd3364263d9c60507535319a300b7165f6e9380aa2529e",
    "scan/scan_T19.5000K.csv": "6df790f00e3cd4b58c4d22fe413b5c2ba78113e77774c5e4eaa9d52a05322488",
    "scan/scan_T19.7500K.csv": "fef1d5001b01bbe9f929d3250d739dca406ddfcb1458949d8af7ed44ca16c20a",
    "scan/scan_T20.0000K.csv": "9aa34ee65e0e6e46da427e4c927a9c9545c6dbc554abe4fa2d4f88f30adc8a38",
    "scan/scan_T20.2500K.csv": "bee533a0dd9f7b8159bb8944329135075e2717d75b3943243be260b1c35fa204",
    "scan/scan_T20.5000K.csv": "b7aa4e1cdfbf5f5f98fcf346ce49fe8de2b43269d44cf83af30801ee2bbfdcc9",
    "scan/scan_T20.7500K.csv": "4b771d53486d98c2b424a22fe540e030d9547b1b52e7c0a816c32b5b96e5bb6e",
    "scan/scan_T21.0000K.csv": "6d878870fb04a8376b1d7d66cec3a8eea30b9fec33d18fdc48d96e82cf2967f4",
    "scan/scan_T21.2500K.csv": "242296a26a0bf279c7ed1b845c5252c137c76666f19c8cbffd59a87b537f7c91",
    "scan/scan_T21.5000K.csv": "e4464f314fd2b93985c6af6e31f0c26b5641fd5cd59a333d72e5fef37d4cba75",
    "scan/scan_T21.7500K.csv": "2bba35de53049b41b80c67cdf091e718fcfa8aac65a30fddbcd6e608d3f49dcf",
    "scan/scan_T22.0000K.csv": "ded8deca5d9de9513f5a893e4a217f8f715b81d860af1e7eadba9c4edb12af1c",
    "scan/scan_T22.2500K.csv": "67062920e970ca9368181b768d603d3f07705f1ca1fd01f7974b4380093fa6a2",
    "scan/scan_T22.5000K.csv": "3c56c267a5217540ef9971fe2ac922ae9bd033909bfa2929d731384944dceef5",
    "scan/scan_T22.7500K.csv": "c0896812c1259bbbece53795a42a7268a5d0b38136b2d244118f3e280bf2372b",
    "scan/scan_T23.0000K.csv": "1d6dedb4be6a1b925f807517e895e0c1024d0b43fd8d1945c6f8f131a2a2425b",
    "scan/scan_config.txt": "297e3c42f102dbbee4f834ed1108bc0343b55757aba5d31fed5043ea16592635",
    "scan_bg/manifest.csv": "0c9ddd7631836903395068dfdb6450482da06ff55c9c8530a486f27e022856ec",
    "scan_bg/scan_T20.0000K.csv": "77ff1468dfbeaa631894fc17c09551141774b73cbdbc77b1a361362b9df67650",
    "scan_bg/scan_T21.0000K.csv": "ce2b37db2b7727bdc3e9681ccf1e74b4acdb7344f7d1803cf2719df1f087db0f",
    "scan_bg/scan_T22.0000K.csv": "622dfd6fa6cdb8f960af7a0f0097780189bfcda3b382e36e8497968a66122b1b",
    "scan_bg/scan_config.txt": "4b1eb39b48c49cea8efd1b2f173d92b2468d5d40cce21465e85d7db3bbde6ee8",
    "scan_config/manifest.csv": "47d6ef04cbf7baf7db964405c8f455888a7c711fc3610112033e3543ad203034",
    "scan_config/scan_T20.0000K.csv": "9aa34ee65e0e6e46da427e4c927a9c9545c6dbc554abe4fa2d4f88f30adc8a38",
    "scan_config/scan_T20.5000K.csv": "b7aa4e1cdfbf5f5f98fcf346ce49fe8de2b43269d44cf83af30801ee2bbfdcc9",
    "scan_config/scan_T21.0000K.csv": "6d878870fb04a8376b1d7d66cec3a8eea30b9fec33d18fdc48d96e82cf2967f4",
    "scan_config/scan_T21.5000K.csv": "e4464f314fd2b93985c6af6e31f0c26b5641fd5cd59a333d72e5fef37d4cba75",
    "scan_config/scan_T22.0000K.csv": "ded8deca5d9de9513f5a893e4a217f8f715b81d860af1e7eadba9c4edb12af1c",
    "scan_config/scan_config.txt": "18446608e8210d4bb7012d89a16df1e6061891e5e6b82c6282119146006467c3",
    "synth/channels_coupled.csv": "6bf7ca9e5cd07439ce8f26dc0107e7062aa804540e0edd6508a35f45395f5e99",
    "synth/channels_empty.csv": "3aeee3ddfcd6b75fc3d6e0afc8bf60052b1a62a3ea52e5a3b141454f3936f78c",
    "synth/coupled.csv": "f89e29df79669b4acad7fb86c781f749f2d9e3426bb508f0c3fc577ad55ba5a5",
    "synth/empty.csv": "d42477c47a833f6be6901c694b56d71200dd1792e2ecac89200d0f03c3e56375",
    "synth_bg/channels_coupled.csv": "405318cb783c00899439664660eac7c0dd31284affe90529e55dc2f3f3924ddc",
    "synth_bg/channels_empty.csv": "4eb29079d0351d0fc339eeea7eb5e6d03280609c54b58fcad8b4ee69779d3118",
    "synth_bg/coupled.csv": "c30914d3675e25b7a2b049260399e0b8126ce8a72a0f98e6a132836dc5a6387b",
    "synth_bg/empty.csv": "fd634436a4a3a1fec5583f7ca1c24739ed622b57d0d8cf56309c64c173c653e4",
    "synth_coarse/channels_coupled.csv": "ddef118b1c3a839bb822bc6f25d3613d407f180eb1f7ccf6d14ae65ecf6114c4",
    "synth_coarse/channels_empty.csv": "6261f18b8111f0b44c60e71da99cf89221c9813bb4a94e24425ac4bd011ce5c4",
    "synth_coarse/coupled.csv": "0836ccb8371783decab07a0caa6c7d4197f66b28a5f9b622cf1c2773cbf88296",
    "synth_coarse/empty.csv": "57f4672d2f07390ca96280fb588ff009bba718db66d7fd9b8456df522a0a284b",
    "synth_noisy/channels_coupled.csv": "4fa94cb3be7e3e0d008cd12278f1067352b4629d8b1f145635d4fcb91c4ba1c7",
    "synth_noisy/channels_empty.csv": "6d0544023896494e1929f83fd8f66c6c8c950ed1123d62653852ba678b130adb",
    "synth_noisy/coupled.csv": "ace4df073f0a84a0b4ed67dbcfcf282f0d6ac9ebb20609949026d60699ee16ba",
    "synth_noisy/empty.csv": "009a1bdb57bf7690ba649da97db8b3103c402e1c05e0a633adeae936c5cae6a7",
    "synth_underflow/channels_coupled.csv": "3aeee3ddfcd6b75fc3d6e0afc8bf60052b1a62a3ea52e5a3b141454f3936f78c",
    "synth_underflow/channels_empty.csv": "3aeee3ddfcd6b75fc3d6e0afc8bf60052b1a62a3ea52e5a3b141454f3936f78c",
    "synth_underflow/coupled.csv": "d42477c47a833f6be6901c694b56d71200dd1792e2ecac89200d0f03c3e56375",
    "synth_underflow/empty.csv": "d42477c47a833f6be6901c694b56d71200dd1792e2ecac89200d0f03c3e56375",
}
# scan_roundtrip reruns scan from its own scan_config.txt: the same bytes
CLI_OUTPUT_DIGESTS.update(
    {f"scan_roundtrip/{k[5:]}": v for k, v in CLI_OUTPUT_DIGESTS.items() if k.startswith("scan/")}
)


def test_cli_outputs_tree(tmp_path):
    done = run_script("cli_outputs.py", str(tmp_path / "tree"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    tree = tmp_path / "tree"
    digests = {
        p.relative_to(tree).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tree.rglob("*")
        if p.is_file()
    }
    assert digests == CLI_OUTPUT_DIGESTS, _digest_diagnosis(digests)


def test_cli_outputs_refuses_a_used_outdir(tmp_path):
    # a rerun into an old tree would keep the files a change stopped writing
    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "stale.csv").write_text("x\n")
    done = run_script("cli_outputs.py", str(tmp_path / "tree"), cwd=tmp_path)
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1 and "is not empty" in done.stderr
    assert [p.name for p in (tmp_path / "tree").iterdir()] == ["stale.csv"]


# numpy's CPU dispatch targets enabled where the digests above were recorded.
# Some of numpy's SIMD loops (arcsin, arctan2) and OpenBLAS's kernels round
# otherwise on other CPUs, so a machine without them may write other bytes.
DIGESTS_CPU_DISPATCH = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]


def _digest_diagnosis(digests):
    """Which files differ, and the CPU features that steer numpy and OpenBLAS."""
    differ = sorted(k for k in digests.keys() | CLI_OUTPUT_DIGESTS.keys() if digests.get(k) != CLI_OUTPUT_DIGESTS.get(k))
    enabled = [f for f in numpy_umath.__cpu_dispatch__ if numpy_umath.__cpu_features__.get(f)]
    env = ", ".join(f"{name}={os.environ.get(name)!r}" for name in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"))
    return (
        f"{len(differ)} files differ: {', '.join(differ)}; numpy dispatch enabled here {enabled}"
        f" (digests recorded under {DIGESTS_CPU_DISPATCH}); {env}"
    )


def test_each_mutant_edit_applies_once():
    # scripts/mutants.py is run by hand, not by Tier-1: this keeps its list
    # in step with the sources it mutates
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
    assert len({name for name, *_ in mutants}) == len(mutants)
    for name, path, before, after in mutants:
        assert before != after, name
        assert (ROOT / path).read_text().count(before) == 1, name
