"""The published JSON schema agrees with the parser: the README example and
the CLI fixtures validate and parse, and every document with a malformed
shape is rejected by both.  The one known gap: JSON Schema's integer admits
numbers with a zero fraction such as 0.0, which the parser rejects."""

import json
import re
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from parahn.errors import ParahnError, SchemaError
from parahn.specio import parse_spec

from test_cli import R1_DOC, R2_DOC, SHAPE_ERRORS
from test_readme import readme_example

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "bundle-spec.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def test_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize(
    "doc", [readme_example(), R1_DOC, R2_DOC], ids=["readme", "R1_DOC", "R2_DOC"]
)
def test_valid_documents_validate_and_parse(doc):
    VALIDATOR.validate(doc)
    parse_spec(json.dumps(doc))


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_malformed_shape_rejected_by_schema_and_parser(case):
    _, doc, _ = SHAPE_ERRORS[case]
    assert not VALIDATOR.is_valid(doc)
    with pytest.raises(ParahnError):
        parse_spec(json.dumps(doc))


# (document, JSON path): JSON Schema cannot tell 0.0 from 0, so these validate,
# while the parser takes only JSON integers and names the offending path
ZERO_FRACTION = {
    "points": (dict(readme_example(), points=[0.0, 1]), "points[0]"),
    "splitting_type": (dict(readme_example(), splitting_type=[0.0, 0]), "splitting_type"),
}


@pytest.mark.parametrize("case", sorted(ZERO_FRACTION))
def test_schema_accepts_zero_fraction_parser_rejects_with_path(case):
    doc, path = ZERO_FRACTION[case]
    VALIDATOR.validate(doc)
    with pytest.raises(SchemaError, match=rf"^{re.escape(path)}: "):
        parse_spec(json.dumps(doc))
