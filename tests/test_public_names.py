"""The names a library user or the benchmark reaches by attribute must resolve."""

import absix
import absix.corpus


def test_public_names_resolve():
    for name in absix.__all__:
        assert hasattr(absix, name), name
    # One definition of the corpus: the package re-exports the registry's builder.
    assert absix.builtin is absix.corpus.builtin
    assert callable(absix.corpus.corpus_names) and absix.corpus.ALIASES
