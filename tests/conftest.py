"""Shared environments for the test suite.

Two fully-built pipelines, constructed once per session from the shipped
configs by the CLI's own builder:

  cfg1    scripts/cfg_reference.json: the reference run (k=100 reaction,
          theta2=176, n=2048).  Its outer supersolution lives at ~4e17,
          which is what makes the descending iteration a stress case.
  gentle  scripts/cfg_small.json: a k=25 reaction with theta2=890.67 and an
          explicit khat shift, n=256.  Every stage is green here, including
          both monotone iteration legs, so it is the end-to-end fixture of
          choice.
"""
import dataclasses
from pathlib import Path

import pytest

from pqsing import DiscreteOperator, NonlinearitySpec, Params, cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@dataclasses.dataclass(frozen=True)
class PipelineEnv:
    window: object
    reactions: object        # at the window midpoint; carries spec and params
    profile: object
    op: DiscreteOperator
    pairs: object
    n: int

    @property
    def spec(self) -> NonlinearitySpec:
        return self.reactions.spec

    @property
    def params(self) -> Params:
        return self.reactions.params


def _build_env(config: str) -> PipelineEnv:
    env = cli._build_env(cli._load_config(str(SCRIPTS / config)))
    op, profile, _rcert, pairs = cli._pairs(env)
    return PipelineEnv(window=env.window, reactions=env.reactions, profile=profile,
                       op=op, pairs=pairs, n=env.n)


@pytest.fixture(scope="session")
def cfg1() -> PipelineEnv:
    return _build_env("cfg_reference.json")


@pytest.fixture(scope="session")
def gentle() -> PipelineEnv:
    return _build_env("cfg_small.json")
