"""Golden outputs: every command line in ``cli_golden.json`` still gives its
recorded exit code, stdout digest and first stderr line.  The corpus is
rebuilt by ``make_cli_golden.py``, only for an intended output change."""

import json

from make_cli_golden import CORPUS, replay, write_files


def test_cli_output_matches_the_golden_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    write_files(corpus["files"], tmp_path)
    changed = [(argv, recorded, got) for argv, *recorded in corpus["cases"]
               if (got := replay(argv, str(tmp_path))) != recorded]
    assert changed == [], f"{len(changed)} of {len(corpus['cases'])} cases changed"
