"""Round 1 rejects a well-formed header whose page counts lie.

A header is untrusted bytes: a count that decodes cleanly but disagrees with
the files the PIR layer serves would size the client's index window and its
padding.  Every scheme checks the counts against the true page counts right
after decoding the header, and raises :class:`StorageError` on a lie (every
honest query of every scheme test passes the same check).  The data round's
padding is bounded too: it must equal what the header's own plan fetches and
fit ``num_regions + 2`` regions plus the continuation pages.
"""

import dataclasses

import pytest

from repro import SystemSpec
from repro.exceptions import StorageError
from repro.network import random_planar_network
from repro.schemes import ConciseIndexScheme
from repro.schemes.files import HeaderInfo

#: Scheme fixtures (``tests/conftest.py``) by the scheme name in their header.
SCHEME_FIXTURES = {
    "CI": "ci_scheme",
    "PI": "pi_scheme",
    "HY": "hybrid_scheme",
    "LM": "landmark_scheme",
    "AF": "arcflag_scheme",
}

#: The page counts a header carries, each told one page too many.
LIED_FIELDS = ("num_index_pages", "num_data_pages", "num_lookup_pages", "index_fetch_pages")


def _true_pages(scheme):
    return lambda name: scheme.database.file(name).num_pages


def _lie(header, field):
    if field == "index_fetch_pages":
        # one page more than the (honest) index holds
        return dataclasses.replace(header, index_fetch_pages=header.num_index_pages + 1)
    return dataclasses.replace(header, **{field: getattr(header, field) + 1})


@pytest.mark.parametrize("field", LIED_FIELDS)
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FIXTURES))
def test_lying_header_is_rejected_at_round_one(
    request, monkeypatch, query_pairs, scheme_name, field
):
    scheme = request.getfixturevalue(SCHEME_FIXTURES[scheme_name])
    forged = _lie(HeaderInfo.decode(scheme.database.header), field)
    with pytest.raises(StorageError):
        forged.check_page_counts(_true_pages(scheme))
    # served to a querying client, the lie stops the query in round 1
    monkeypatch.setattr(scheme.database, "_header", forged.encode())
    with pytest.raises(StorageError):
        scheme.query(*query_pairs[0])


def _data_round_bound(header):
    return (header.num_regions + 2) * header.data_pages_per_region + (
        header.index_continuation_pages
    )


def _with_data_round(header, pages):
    """``header`` padding its data round to ``pages``, its plan agreeing: the
    last round that fetches the data file fetches the difference more."""
    rounds = list(header.plan.rounds)
    last = max(i for i, spec in enumerate(rounds) if dict(spec.fetches).get(header.data_file, 0))
    delta = pages - header.data_round_pages
    fetches, done = [], False
    for name, count in rounds[last].fetches:
        if name == header.data_file and not done:
            count, done = count + delta, True
        fetches.append((name, count))
    rounds[last] = dataclasses.replace(rounds[last], fetches=tuple(fetches))
    plan = dataclasses.replace(header.plan, rounds=tuple(rounds))
    return dataclasses.replace(header, data_round_pages=pages, plan=plan)


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FIXTURES))
def test_data_round_pages_at_the_bound_pass_and_one_past_fails(request, scheme_name):
    scheme = request.getfixturevalue(SCHEME_FIXTURES[scheme_name])
    header = HeaderInfo.decode(scheme.database.header)
    bound = _data_round_bound(header)
    assert header.data_round_pages <= bound
    at_bound = HeaderInfo.decode(_with_data_round(header, bound).encode())
    at_bound.check_page_counts(_true_pages(scheme))
    past = HeaderInfo.decode(_with_data_round(header, bound + 1).encode())
    with pytest.raises(StorageError, match="data round"):
        past.check_page_counts(_true_pages(scheme))


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FIXTURES))
def test_data_round_pages_must_match_the_plan(request, monkeypatch, query_pairs, scheme_name):
    scheme = request.getfixturevalue(SCHEME_FIXTURES[scheme_name])
    header = HeaderInfo.decode(scheme.database.header)
    forged = dataclasses.replace(header, data_round_pages=header.data_round_pages - 1)
    with pytest.raises(StorageError, match="its plan fetches"):
        forged.check_page_counts(_true_pages(scheme))
    monkeypatch.setattr(scheme.database, "_header", forged.encode())
    with pytest.raises(StorageError):
        scheme.query(*query_pairs[0])


@pytest.mark.parametrize("plan_agrees", [False, True])
def test_data_round_lie_stops_before_any_data_fetch(monkeypatch, plan_agrees):
    # a well-formed 150-node CI header claiming 20,000 data pages per query
    # (the honest value is in the twenties) used to fetch them all before
    # the plan check raised
    network = random_planar_network(150, seed=1)
    scheme = ConciseIndexScheme.build(network, SystemSpec(page_size=256))
    header = HeaderInfo.decode(scheme.database.header)
    if plan_agrees:
        forged = _with_data_round(header, 20_000)
    else:
        forged = dataclasses.replace(header, data_round_pages=20_000)
    monkeypatch.setattr(scheme.database, "_header", forged.encode())
    fetched = []
    retrieve_pages = scheme.pir.retrieve_pages

    def spy(file_name, page_numbers, trace):
        fetched.append((file_name, len(page_numbers)))
        return retrieve_pages(file_name, page_numbers, trace)

    monkeypatch.setattr(scheme.pir, "retrieve_pages", spy)
    source, target = list(network.node_ids())[:2]
    with pytest.raises(StorageError, match="data round"):
        scheme.query(source, target)
    assert fetched == []
