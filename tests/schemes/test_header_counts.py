"""Round 1 rejects a well-formed header whose page counts lie.

A header is untrusted bytes: a count that decodes cleanly but disagrees with
the files the PIR layer serves would size the client's index window and its
padding.  Every scheme checks the counts against the true page counts right
after decoding the header, and raises :class:`StorageError` on a lie (every
honest query of every scheme test passes the same check).
"""

import dataclasses

import pytest

from repro.exceptions import StorageError
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
