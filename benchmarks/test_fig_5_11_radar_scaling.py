"""Figure 5-11: multiplication reduction of maximal linear replacement on
the Radar benchmark as a function of problem size (channels x beams).

Expected shape (§5.7): linear replacement degrades as the configuration
grows, and growing the number of beams hurts much more than growing the
number of channels (each extra beam duplicates the combined
Beamform+FIR work under the duplicate splitter).
"""

from __future__ import annotations

import pytest

from tables import RADAR_BEAMS as BEAMS, RADAR_CHANNELS as CHANNELS, radar_grid


@pytest.fixture(scope="module")
def grid():
    return radar_grid()


def test_fig_5_11(grid):
    # growing beams degrades the reduction for every channel count
    for ch in CHANNELS:
        assert grid[(ch, BEAMS[0])] > grid[(ch, BEAMS[-1])], \
            [(b, grid[(ch, b)]) for b in BEAMS]


def test_beams_hurt_more_than_channels(grid):
    """§5.7: 'degradation due to increasing Beams is much more pronounced
    than increasing Channels.'"""
    beam_drop = grid[(CHANNELS[0], BEAMS[0])] - grid[(CHANNELS[0],
                                                      BEAMS[-1])]
    chan_drop = grid[(CHANNELS[0], BEAMS[0])] - grid[(CHANNELS[-1],
                                                      BEAMS[0])]
    assert beam_drop > chan_drop
