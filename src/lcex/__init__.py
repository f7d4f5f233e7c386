"""Constant-time encoding LCE queries in sub-linear space.

Build once from a byte string; the index then answers longest-common-
extension queries without the text, via a truncated suffix tree, a spanning
navigation tree over 2t-gram contexts, and a block code over a difference
cover of positions.
"""

from .batch import lce_batch, short_lce_batch
from .blockcode import BlockCode, build_blockcode, rank_blocks
from .container import dump_index, load_index, load_index_file, save_index
from .diffcover import CoverIndex, DifferenceCover, build_cover_index, build_difference_cover
from .errors import EmptyInput, FormatError, LcexError, OutOfRange, ParamOutOfRange
from .lce import LceIndex, SpaceStats, build_index, tune_tau
from .lz77 import LZFactorization, lz77_factorize
from .navtree import NavTree, build_navtree, short_lce
from .oracle import IsaOracle, naive_lce
from .packed import PackedLce, PackedText, bit_short_lce, build_packed, pack
from .textstore import Text, load_file, load_text, substring
from .tst import TruncatedSuffixTree, build_tst, compact_reference

__version__ = "0.1.0"

__all__ = [
    "BlockCode", "CoverIndex", "DifferenceCover", "EmptyInput", "FormatError",
    "IsaOracle", "LZFactorization", "LceIndex", "LcexError", "NavTree",
    "OutOfRange", "PackedLce", "PackedText", "ParamOutOfRange",
    "SpaceStats", "Text", "TruncatedSuffixTree",
    "bit_short_lce", "build_blockcode", "build_cover_index",
    "build_difference_cover", "build_index", "build_navtree", "build_packed",
    "build_tst", "compact_reference", "dump_index", "lce_batch",
    "load_file", "load_index", "load_index_file", "load_text",
    "lz77_factorize", "naive_lce", "pack",
    "rank_blocks", "save_index", "short_lce", "short_lce_batch", "substring",
    "tune_tau",
]
