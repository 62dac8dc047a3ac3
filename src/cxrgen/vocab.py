"""Token vocabularies with reserved control ids."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence, Union

from .errors import ConfigurationError, ContractError, DataError
from .records import atomic_write_text

PAD_ID = 0
START_ID = 1
END_ID = 2
UNK_ID = 3
PAD, START, END, UNK = "<pad>", "<start>", "<end>", "<unk>"
RESERVED_TOKENS = (PAD, START, END, UNK)


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization of already-standardized text."""
    return text.split()


def detokenize(tokens: Iterable[str]) -> str:
    return " ".join(tokens)


class Vocabulary:
    """Bidirectional token <-> id map; ids 0..3 are PAD/START/END/UNK."""

    def __init__(self, tokens: Sequence[str]):
        seen = set(RESERVED_TOKENS)
        for tok in tokens:
            if tok in seen:
                raise ConfigurationError(f"duplicate or reserved token in vocabulary: {tok!r}")
            seen.add(tok)
        self._id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}

    @classmethod
    def fit(cls, corpus: Iterable[str]) -> "Vocabulary":
        """Build from standardized texts: frequency desc, then token asc."""
        counts: Counter[str] = Counter()
        for text in corpus:
            counts.update(tokenize(text))
        if not counts:
            raise ConfigurationError("cannot fit a vocabulary on an empty corpus")
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([tok for tok, _ in ordered])

    def __len__(self) -> int:
        return len(self._id_to_token)

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        """Id for ``token``; unknown tokens map to UNK."""
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise ContractError(f"token id {token_id} out of range [0, {len(self._id_to_token)})")
        return self._id_to_token[token_id]

    def encode(self, text: Union[str, Sequence[str]]) -> list[int]:
        tokens = tokenize(text) if isinstance(text, str) else list(text)
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Tokens for ``ids``, the reserved control tokens left out."""
        tokens = [self.token_of(int(i)) for i in ids]
        return [t for t in tokens if t not in RESERVED_TOKENS]

    def text(self, ids: Iterable[int]) -> str:
        return detokenize(self.decode(ids))

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {"tokens": self._id_to_token[len(RESERVED_TOKENS):]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        try:
            return cls(payload["tokens"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed vocabulary payload: {exc}") from exc

    def save(self, path: Union[str, Path]) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Vocabulary":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read vocabulary {path}: {exc}") from exc
        return cls.from_dict(payload)
