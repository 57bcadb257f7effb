"""Fuzz the three readers through ``radialopf validate``.

Inputs are MATPOWER texts made by mutating the tokens of case33.m, network
JSON documents with one field edited, and scenario documents over the
scenario schema's keys. Every input must either validate (exit 0) or end in
exit 1 with exactly one stderr line; no exception may escape ``cli.main``.
"""
import contextlib
import importlib.resources
import io
import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from radialopf import cli, netmodel

CASE33 = (importlib.resources.files("radialopf") / "cases" / "case33.m").read_text()
# the text from the first statement on, and the spans of its numbers, the
# first being baseMVA's (the one a mutation picks most often)
BODY = CASE33[CASE33.index("mpc.baseMVA"):]
TOKENS = [m.span() for m in re.finditer(r"(?<![\w.])-?\d[\d.eE+-]*", BODY)]
REPLACEMENTS = ["nan", "inf", "-inf", "1e309", "1e400", "-1e400", "0", "-1", "3", "33.7",
                "2.5", "1e-320", "1e308", "", "x", "1 2", ";", "]", "[", "%", "1e5e5", "1..0"]

NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 40))
# any JSON value but an integer
JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                 st.lists(NUMBER, max_size=3), st.dictionaries(st.text(max_size=3), NUMBER,
                                                                max_size=2))
DROP = object()  # the edit that deletes a key


def _matpower_texts():
    edit = st.tuples(st.sampled_from(TOKENS), st.sampled_from(REPLACEMENTS))

    def mutate(edits):
        text = BODY
        for (start, end), new in sorted(edits, reverse=True):
            text = text[:start] + new + text[end:]
        return "case.m", text

    return st.lists(edit, min_size=1, max_size=3, unique_by=lambda e: e[0]).map(mutate)


def _edited(doc, path, value):
    """``doc`` as JSON text with the value at ``path`` replaced (deleted, for
    ``DROP``); a path whose parent is absent leaves ``doc`` as it is."""
    doc = json.loads(json.dumps(doc))
    record = doc
    for key in path[:-1]:
        if isinstance(record, dict) and key not in record or (
                isinstance(record, list) and key >= len(record)):
            return json.dumps(doc)
        record = record[key]
    if value is DROP:
        record.pop(path[-1], None)
    else:
        record[path[-1]] = value
    return json.dumps(doc)


def _network_docs():
    base = json.loads(netmodel.to_json(netmodel.parse_matpower_case(CASE33)))
    path = st.one_of(
        st.sampled_from(["slack", "base_power", "base_voltage", "v0", "format", "buses",
                         "branches", "extra"]).map(lambda k: (k,)),
        st.tuples(st.just("buses"), st.integers(0, 32),
                  st.sampled_from(["id", "p_load", "q_load", "v_min", "v_max", "gen"])),
        st.tuples(st.just("branches"), st.integers(0, 31),
                  st.sampled_from(["from", "to", "r", "x", "i_max"])),
        st.tuples(st.just("buses"), st.just(0), st.just("gen"),
                  st.sampled_from(["p_min", "p_max", "q_min", "q_max", "cost_p", "cost_q",
                                   "extra"])),
    )
    # mostly numbers, so that most edits reach ``netmodel.validate``
    value = st.one_of(NUMBER, NUMBER, JUNK, st.just(DROP))
    return st.tuples(path, value).map(lambda edit: ("net.json", _edited(base, *edit)))


def _scenario_docs():
    """A well-typed scenario (its numbers may be non-finite, negative or
    zero) with at most one fault: a key mistyped, wrongly sized, deleted or
    unknown, at the top level, in ``duplication`` or in the first DG."""
    pair = st.lists(NUMBER, min_size=2, max_size=2)
    dg = st.fixed_dictionaries({"bus": st.integers(0, 35), "p_range": pair, "q_range": pair,
                                "cost_p": NUMBER, "cost_q": NUMBER})
    # copies never above 3, so that no large duplication is built
    duplication = st.fixed_dictionaries({"copies": st.integers(-1, 3)}, optional={
        "seed": st.integers(-2, 2 ** 70), "range": pair})
    doc = st.fixed_dictionaries({"case": st.sampled_from(["case33.m", "case69.m"])}, optional={
        "psp_voltage": NUMBER, "psp_costs": pair, "psp_load": pair,
        "dgs": st.lists(dg, max_size=2), "load_scale": NUMBER, "impedance_scale": NUMBER,
        "v_limits": pair, "duplication": duplication, "thermal_limits": st.booleans(),
    })
    path = st.one_of(
        st.sampled_from(["case", "psp_voltage", "psp_costs", "psp_load", "dgs", "load_scale",
                         "impedance_scale", "v_limits", "duplication", "thermal_limits",
                         "psp_votage"]).map(lambda k: (k,)),
        st.sampled_from(["copies", "seed", "range", "sed"]).map(lambda k: ("duplication", k)),
        st.sampled_from(["bus", "p_range", "q_range", "cost_p", "cost_q", "cost_x"]).map(
            lambda k: ("dgs", 0, k)),
    )
    # a fault is never an integer, so that it never asks for more than 3 copies
    faulty = st.tuples(doc, path, st.one_of(JUNK, st.just(DROP))).map(lambda d: _edited(*d))
    return st.one_of(doc.map(json.dumps), faulty).map(lambda text: ("scen.json", text))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([_matpower_texts, _network_docs, _scenario_docs]).flatmap(
    lambda kind: kind()))
def test_readers_validate_or_fail_in_one_line(tmp_path_factory, named_text):
    name, text = named_text
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(text)
    flag = "--scenario" if name == "scen.json" else "--case"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", flag, str(path)])
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith("data error: ")
        and err.getvalue().count("\n") == 1), (code, err.getvalue())
