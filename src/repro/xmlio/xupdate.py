"""XUpdate-style update transaction documents.

The paper's implementation expresses updates in XUpdate (slide 16).
This reproduction uses an XUpdate-flavoured dialect carrying the same
information — a selecting query, elementary insert/delete operations,
and the transaction confidence::

    <xu:modifications xmlns:xu="urn:repro:xupdate"
                      query="/A { B, C[$c] }" confidence="0.9">
      <xu:insert anchor="a"><D/></xu:insert>
      <xu:delete target="c"/>
    </xu:modifications>

* ``query`` holds the TPWJ text syntax (:mod:`repro.tpwj.parser`);
* ``anchor`` / ``target`` name query variables (without the ``$``);
* the body of ``xu:insert`` is the subtree to insert, in the plain
  data dialect.

A *batch* groups several transactions committed as one unit (the
warehouse applies them in document order with a single log append)::

    <xu:batch xmlns:xu="urn:repro:xupdate">
      <xu:modifications .../>
      <xu:modifications .../>
    </xu:batch>
"""

from __future__ import annotations

from xml.etree import ElementTree as ET

from repro.errors import QueryError, QueryParseError, UpdateError, XMLFormatError
from repro.tpwj.parser import format_pattern, parse_pattern
from repro.updates.operations import DeleteOperation, InsertOperation
from repro.updates.transaction import TransactionBatch, UpdateTransaction
from repro.xmlio.parse import _fromstring, plain_from_element
from repro.xmlio.serialize import XUPDATE_NAMESPACE, _Markup, _to_string

__all__ = [
    "XUPDATE_NAMESPACE",
    "transaction_to_string",
    "transaction_from_string",
    "batch_to_string",
    "batch_from_string",
    "updates_from_string",
]

_MODIFICATIONS = f"{{{XUPDATE_NAMESPACE}}}modifications"
_INSERT = f"{{{XUPDATE_NAMESPACE}}}insert"
_DELETE = f"{{{XUPDATE_NAMESPACE}}}delete"
_BATCH = f"{{{XUPDATE_NAMESPACE}}}batch"


def _modifications(transaction: UpdateTransaction) -> _Markup:
    operations = [
        _Markup(_INSERT, (("anchor", op.anchor),), (op.subtree,))
        if isinstance(op, InsertOperation)
        else _Markup(_DELETE, (("target", op.target),))
        for op in transaction.operations
    ]
    attributes = (
        ("query", format_pattern(transaction.query)),
        ("confidence", repr(transaction.confidence)),
    )
    return _Markup(_MODIFICATIONS, attributes, operations)


def transaction_to_string(transaction: UpdateTransaction, indent: bool = True) -> str:
    return _to_string(_modifications(transaction), indent)


def transaction_from_string(text: str) -> UpdateTransaction:
    return transaction_from_element(_fromstring(text))


def transaction_from_element(element: ET.Element) -> UpdateTransaction:
    if element.tag != _MODIFICATIONS:
        raise XMLFormatError(
            f"expected root element xu:modifications, got {element.tag!r}"
        )
    query_text = element.get("query")
    if query_text is None:
        raise XMLFormatError("xu:modifications requires a query attribute")
    try:
        query = parse_pattern(query_text)
    except QueryParseError as exc:
        raise XMLFormatError(f"invalid query {query_text!r}: {exc}") from exc

    confidence_text = element.get("confidence", "1.0")
    try:
        confidence = float(confidence_text)
    except ValueError:
        raise XMLFormatError(f"invalid confidence {confidence_text!r}") from None

    operations: list = []
    for child in element:
        if child.tag == _INSERT:
            anchor = child.get("anchor")
            if anchor is None:
                raise XMLFormatError("xu:insert requires an anchor attribute")
            bodies = list(child)
            if len(bodies) != 1:
                raise XMLFormatError("xu:insert must contain exactly one subtree")
            operations.append(InsertOperation(anchor, plain_from_element(bodies[0])))
        elif child.tag == _DELETE:
            target = child.get("target")
            if target is None:
                raise XMLFormatError("xu:delete requires a target attribute")
            operations.append(DeleteOperation(target))
        else:
            raise XMLFormatError(f"unexpected element in xu:modifications: {child.tag!r}")

    try:
        return UpdateTransaction(query, operations, confidence)
    except (UpdateError, QueryError) as exc:
        raise XMLFormatError(f"invalid transaction: {exc}") from exc


def batch_to_string(batch: TransactionBatch, indent: bool = True) -> str:
    return _to_string(_Markup(_BATCH, (), map(_modifications, batch)), indent)


def batch_from_string(text: str) -> TransactionBatch:
    return batch_from_element(_fromstring(text))


def batch_from_element(element: ET.Element) -> TransactionBatch:
    if element.tag != _BATCH:
        raise XMLFormatError(f"expected root element xu:batch, got {element.tag!r}")
    transactions = [transaction_from_element(child) for child in element]
    try:
        return TransactionBatch(transactions)
    except UpdateError as exc:
        raise XMLFormatError(f"invalid batch: {exc}") from exc


def updates_from_string(text: str) -> UpdateTransaction | TransactionBatch:
    """Parse either a single ``xu:modifications`` or an ``xu:batch`` document."""
    element = _fromstring(text)
    if element.tag == _BATCH:
        return batch_from_element(element)
    return transaction_from_element(element)
