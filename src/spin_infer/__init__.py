"""Toy multimodal decoder with attention-guided head suppression."""

__version__ = "0.1.0"

from .decoding import DecodeConfig, GenerationResult, generate  # noqa: F401
from .engine import Engine, KvCache, MultimodalPrompt, PromptLayout  # noqa: F401
from .model import Checkpoint, ModelConfig, init_checkpoint, load_checkpoint, save_checkpoint  # noqa: F401
from .spin import SpinConfig, SpinPolicy, kept_count  # noqa: F401
