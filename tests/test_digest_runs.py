"""The comparison half of `tests/digest_runs.py`: parsing digest lines,
picking one workload's lines and naming what differs."""

import pytest

from digest_runs import differences, main, parse, select

A, B, C, D = ("a" * 64, "b" * 64, "c" * 64, "d" * 64)


def line(label: str, *digests: str) -> str:
    return " ".join([label, *digests])


class TestParse:
    def test_digest_and_raised_lines(self):
        lines = [line("mc/p=0.1/on/seed=0", A, B, C, D) + "\n", "",
                 "chain10/seed=0 raised RuntimeError('non-finite state')"]
        assert parse(lines) == {
            "mc/p=0.1/on/seed=0": [A, B, C, D],
            "chain10/seed=0": ["raised RuntimeError('non-finite state')"]}


class TestDifferences:
    def test_equal_digests_differ_nowhere(self):
        digests = {"chain10/seed=0": [A, B, C, D]}
        assert differences(digests, dict(digests)) == []

    def test_names_each_differing_column(self):
        want = {"mc/p=0.2/off/seed=1": [A, B, C, D], "formation/seed=0": [A, B, C, D]}
        got = {"mc/p=0.2/off/seed=1": [A, C, C, A], "formation/seed=0": [D, B, C, D]}
        assert differences(want, got) == ["formation/seed=0: config differ",
                                          "mc/p=0.2/off/seed=1: result, header differ"]

    def test_missing_and_extra_operations(self):
        want = {"chain10/seed=0": [A, B, C, D], "chain10/seed=10000": [A, B, C, D]}
        got = {"chain10/seed=0": [A, B, C, D], "chain10/seed=20000": [A, B, C, D]}
        assert differences(want, got) == ["chain10/seed=10000: missing",
                                          "chain10/seed=20000: extra"]

    def test_raised_operations(self):
        raised = ["raised ValueError('x')"]
        want = {"mc/a": [A, B, C, D], "mc/b": raised, "mc/c": raised}
        got = {"mc/a": raised, "mc/b": [A, B, C, D], "mc/c": ["raised ValueError('y')"]}
        assert differences(want, got) == ["mc/a: raised differ", "mc/b: raised differ",
                                          "mc/c: raised differ"]
        assert differences({"mc/b": raised}, {"mc/b": list(raised)}) == []


class TestColumns:
    def test_compares_only_the_named_columns(self):
        want = {"mc/a": [A, B, C, D], "mc/b": [A, B, C, D], "mc/c": [A, B, C, D]}
        got = {"mc/a": [B, B, C, A], "mc/b": [A, B, D, D], "mc/c": ["raised ValueError('x')"]}
        assert differences(want, got, ("result", "logs")) == ["mc/b: logs differ",
                                                              "mc/c: raised differ"]
        assert differences(want, got, ("config", "header")) == ["mc/a: config, header differ",
                                                                "mc/c: raised differ"]
        assert differences(want, got) == differences(want, got, ("config", "result", "logs",
                                                                 "header"))
        assert differences({"mc/a": [A, B, C, D]}, {}, ("logs",)) == ["mc/a: missing"]

    @pytest.mark.parametrize("columns", ["logs,bogus", "", "result,,logs"])
    def test_unknown_column_is_a_usage_error(self, columns, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--columns", columns])
        assert exc.value.code == 2
        assert "argument --columns: unknown columns" in capsys.readouterr().err


class TestSelect:
    def test_keeps_the_lines_of_the_named_workloads_only(self):
        digested = {"chain10/seed=0": [A], "mc/p=0.1/on/seed=0": [B],
                    "mc/p=0.2/off/seed=3": [C], "formation/seed=0": [D]}
        # A label the run no longer makes still counts: it shows as missing.
        assert select(digested, ["mc/p=0.1/on/seed=0"]) == {
            "mc/p=0.1/on/seed=0": [B], "mc/p=0.2/off/seed=3": [C]}
        assert differences(select(digested, ["mc/p=0.1/on/seed=0"]),
                           {"mc/p=0.1/on/seed=0": [B]}) == ["mc/p=0.2/off/seed=3: missing"]
        assert select(digested, []) == {}
