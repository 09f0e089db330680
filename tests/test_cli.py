import re
import socket

import numpy as np
import pytest

from ntcfk import crosscheck
from ntcfk.cli import EXIT_ERROR, EXIT_FAIL, EXIT_OK, main
from ntcfk.ntcf import gen, key_from_text, key_to_text, trapdoor_from_text
from ntcfk.presets import get_preset


def run(argv):
    return main(argv)


class TestKeygen:
    def test_writes_reparseable_pair(self, tmp_path):
        rc = run(["keygen", "--preset", "desk-k3", "--seed", "7",
                  "--out", str(tmp_path)])
        assert rc == EXIT_OK
        k = key_from_text((tmp_path / "key.pub").read_text())
        k2, t2 = trapdoor_from_text((tmp_path / "key.sk").read_text())
        assert k == k2
        k_ref, t_ref = gen(get_preset("desk-k3"), np.random.default_rng(7))
        assert k == k_ref
        assert t2.s == t_ref.s

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["keygen", "--preset", "tiny-exact", "--seed", "3",
                        "--out", str(d)]) == EXIT_OK
        assert (a / "key.pub").read_text() == (b / "key.pub").read_text()
        assert (a / "key.sk").read_text() == (b / "key.sk").read_text()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTCF_SEED", "3")
        assert run(["keygen", "--preset", "tiny-exact",
                    "--out", str(tmp_path / "env")]) == EXIT_OK
        assert run(["keygen", "--preset", "tiny-exact", "--seed", "3",
                    "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert (
            (tmp_path / "env" / "key.pub").read_text()
            == (tmp_path / "flag" / "key.pub").read_text()
        )

    def test_explicit_params(self, tmp_path):
        rc = run(["keygen", "--q", "97", "--n", "1", "--m", "12",
                  "--kappa", "3", "--bl", "0.4", "--bv", "0.8",
                  "--ct", "1.5", "--seed", "1", "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        rc = run(["keygen", "--q", "15", "--n", "1", "--m", "4",
                  "--kappa", "2", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        assert "violation" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--kappa", "0", "B_P needs positive"),
        ("--ct", "0", "B_P needs positive"),
        ("--m", "0", "B_P needs positive"),
        ("--bv", "0", "width ordering"),
        ("--bl", "0", "width ordering"),
        ("--kappa", "1" + "0" * 400, "too large"),
    ], ids=["kappa-zero", "ct-zero", "m-zero", "bv-zero", "bl-zero", "kappa-huge"])
    def test_degenerate_params_exit_2(self, tmp_path, capsys, flag, value, message):
        rc = run(["keygen", "--q", "7", "--n", "1", "--m", "2", "--kappa", "3",
                  flag, value, "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        assert message in capsys.readouterr().err

    def test_missing_params_exit_2(self, tmp_path):
        rc = run(["keygen", "--q", "97", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR


class TestProtocol:
    def test_honest_accepts(self, tmp_path, capsys):
        rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "30",
                  "--seed", "5", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "honest mode: exact-enumeration" in out
        assert "accepts=30" in out
        assert (tmp_path / "stats.txt").exists()
        assert (tmp_path / "transcripts.txt").exists()

    def test_honest_desk_idealized(self, tmp_path, capsys):
        rc = run(["protocol", "--preset", "desk-k3", "--rounds", "20",
                  "--seed", "5", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert "honest mode: idealized-claw" in capsys.readouterr().out

    def test_cheat_commit_fails(self, tmp_path):
        rc = run(["protocol", "--preset", "desk-k3", "--rounds", "40",
                  "--prover", "cheat-commit", "--seed", "5",
                  "--out", str(tmp_path)])
        assert rc == EXIT_FAIL

    def test_tcp_transport(self, tmp_path):
        rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "10",
                  "--transport", "tcp:127.0.0.1:0", "--seed", "5",
                  "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_bad_transport_exit_2(self, tmp_path):
        rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "2",
                  "--transport", "carrier-pigeon", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR

    def test_busy_tcp_port_exit_2(self, tmp_path, capsys):
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "2",
                      "--transport", f"tcp:127.0.0.1:{port}", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        assert "transport failure" in capsys.readouterr().err

    def test_tcp_port_out_of_range_exit_2(self, tmp_path):
        rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "2",
                  "--transport", "tcp:127.0.0.1:70000", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR

    @pytest.mark.parametrize("transport", [
        "tcp:127.0.0.1", "tcp:h:1:2", "tcp:127.0.0.1:", "tcp::0", "tcp:127.0.0.1:65536",
        "tcp:127.0.0.1:+1", "tcp:127.0.0.1: 1", "tcp:127.0.0.1:\u0661", "carrier-pigeon",
    ], ids=["no-port", "three-fields", "empty-port", "empty-host", "port-65536",
            "port-plus-sign", "port-space", "port-arabic-indic-digit", "not-tcp"])
    def test_transport_forms_exit_2(self, transport, tmp_path, capsys):
        """Only inproc and tcp:HOST:PORT run, HOST non-empty and PORT
        decimal in 0-65535; every other form gets the same error, before
        any session."""
        rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "2",
                  "--transport", transport, "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: bad --transport {transport!r}: expected inproc or tcp:HOST:PORT "
            "with a non-empty HOST and a decimal PORT in 0-65535\n")
        assert not (tmp_path / "stats.txt").exists()

    def test_zero_rounds_exit_2(self, tmp_path):
        rc = run(["protocol", "--preset", "tiny-exact", "--rounds", "0",
                  "--out", str(tmp_path)])
        assert rc == EXIT_ERROR


class TestStats:
    def test_desk_table(self, capsys):
        rc = run(["stats", "--preset", "desk-k3", "--seed", "2"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("yes") == 3  # one row per branch

    def test_tiny(self):
        assert run(["stats", "--preset", "tiny-exact", "--seed", "2"]) == EXIT_OK


class TestReduce:
    @pytest.mark.parametrize("path", ["dcp", "edcp"])
    def test_paths_recover_plant(self, path, capsys):
        rc = run(["reduce", "--preset", "desk-k3", "--path", path,
                  "--seed", "4"])
        assert rc == EXIT_OK
        assert "plant matches: True" in capsys.readouterr().out

    def test_inject_fault_exit_1(self, capsys):
        rc = run(["reduce", "--preset", "desk-k3", "--inject-fault",
                  "--seed", "4"])
        assert rc == EXIT_FAIL
        assert "success=False" in capsys.readouterr().out

    @pytest.mark.parametrize("ell", ["0", "-1"])
    @pytest.mark.parametrize("fault", [[], ["--inject-fault"]], ids=["recover", "inject-fault"])
    def test_bad_ell_exit_2(self, ell, fault, capsys):
        rc = run(["reduce", "--preset", "desk-k3", "--ell", ell, "--seed", "4"] + fault)
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "error: --ell must be >= 1\n"

    @pytest.mark.parametrize("kappa, code", [("5", EXIT_OK), ("521", EXIT_OK),
                                             ("522", EXIT_ERROR), ("600", EXIT_ERROR)])
    def test_edcp_kappa_at_most_q(self, kappa, code, capsys):
        """EDCP states take kappa up to q = 521; past it, claw labels
        repeat and the pipeline refuses to run."""
        rc = run(["reduce", "--preset", "desk-k3", "--path", "edcp", "--kappa", kappa,
                  "--seed", "4"])
        assert rc == code
        out = capsys.readouterr()
        if code == EXIT_OK:
            assert "plant matches: True" in out.out
        else:
            assert out.err == f"error: kappa={kappa} must be >= 2 and <= q=521\n"


class TestOracleCompare:
    def test_tiny_matches(self, capsys):
        rc = run(["oracle-compare", "--preset", "tiny-exact", "--seed", "6"])
        assert rc == EXIT_OK
        assert "TV(analytic, oracle)" in capsys.readouterr().out

    def test_mis_shift_detected(self):
        rc = run(["oracle-compare", "--preset", "tiny-exact", "--seed", "6",
                  "--mis-shift", "1"])
        assert rc == EXIT_FAIL

    def test_oversized_state_exit_2(self, capsys):
        rc = run(["oracle-compare", "--preset", "desk-k3", "--seed", "6"])
        assert rc == EXIT_ERROR
        assert re.fullmatch(r"error: joint support \d+ exceeds cap \d+\n", capsys.readouterr().err)

    @pytest.mark.parametrize("mis_shift, code", [("0", EXIT_OK), ("1", EXIT_FAIL)])
    def test_verbose_runs_the_oracle_once(self, capsys, monkeypatch, mis_shift, code):
        """One oracle joint gives the TV and the table, whose lines are the
        joint's points and probabilities in sorted order."""
        built = []

        def oracle_joint(k):
            built.append(real(k))
            return built[-1]

        real = crosscheck.oracle_joint
        monkeypatch.setattr(crosscheck, "oracle_joint", oracle_joint)
        rc = run(["oracle-compare", "--preset", "tiny-exact", "--seed", "6",
                  "--mis-shift", mis_shift, "--verbose"])
        assert rc == code
        assert len(built) == 1
        table = built[0].table
        want = [" ".join(map(str, key)) + " -> " + repr(table[key]) for key in sorted(table)]
        assert capsys.readouterr().out.splitlines()[1:] == want


class TestUsage:
    def test_unknown_preset_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["keygen", "--preset", "galactic", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flags", [
        (["reduce", "--preset", "desk-k3", "--path", "dcp", "--kappa", "600"], "--kappa"),
        (["reduce", "--preset", "desk-k3", "--inject-fault", "--kappa", "600"], "--kappa"),
        (["reduce", "--preset", "desk-k3", "--path", "edcp", "--inject-fault", "--kappa", "5"],
         "--kappa"),
        (["keygen", "--preset", "desk-k3", "--kappa", "5", "--q", "97"], "--q, --kappa"),
        (["stats", "--preset", "desk-k3", "--kappa", "5"], "--kappa"),
        (["oracle-compare", "--preset", "tiny-exact", "--m", "9"], "--m"),
        (["protocol", "--preset", "tiny-exact", "--n", "3", "--rounds", "2"], "--n"),
    ], ids=["reduce-dcp", "reduce-fault", "reduce-edcp-fault", "keygen", "stats",
            "oracle-compare", "protocol"])
    def test_preset_refuses_parameter_flags(self, argv, flags, tmp_path, capsys):
        """A preset fixes q, n, m and kappa, so giving one of them too is a
        usage error, not a flag that is silently dropped."""
        rc = run(argv + ["--seed", "4", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: --preset {argv[2]} fixes q, n, m and kappa; "
                                           f"drop {flags}\n")
        assert not any(tmp_path.iterdir())

    def test_no_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
