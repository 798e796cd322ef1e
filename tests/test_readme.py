import re
from pathlib import Path

import gcfmesh as g

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_is_in_the_readme():
    # the public API is what the README documents: every name in __all__
    # appears as code, in a fenced block or an inline code span
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`[^`]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    code = " ".join(blocks + spans)
    missing = [name for name in g.__all__
               if not re.search(rf"\b{name}\b", code)]
    assert not missing
