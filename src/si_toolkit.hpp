// Umbrella header for the switched-current toolkit.
//
// Pulls in the full public API:
//   si::linalg   — sparse LU substrate (+ dense LU oracle)
//   si::spice    — transistor-level circuit simulation (+ deck parser)
//   si::dsp      — FFT / spectra / metrics / decimation
//   si::cells    — SI memory cells, CMFF, delay line, filters, models
//   si::dsm      — delta-sigma modulators, decimators, SiAdc
//   si::erc      — static electrical-rule checks and diagnostics
//   si::analysis — measurement pipelines, Monte-Carlo, reporting
//   si::runtime  — work-stealing pool, parallel_for/map, RNG streams,
//                  content-addressed result cache
//
// Prefer the individual headers in translation units that only need a
// slice; this header is for quick experiments and examples.
#pragma once

#include "analysis/measure.hpp"
#include "analysis/monte_carlo.hpp"
#include "analysis/plot.hpp"
#include "analysis/table.hpp"
#include "dsm/adc.hpp"
#include "dsm/decimator.hpp"
#include "dsm/linear_model.hpp"
#include "dsm/modulator.hpp"
#include "dsm/quantizer.hpp"
#include "dsp/estimation.hpp"
#include "dsp/fft.hpp"
#include "dsp/filter.hpp"
#include "dsp/metrics.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/window.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "runtime/parallel.hpp"
#include "runtime/result_cache.hpp"
#include "runtime/rng_stream.hpp"
#include "runtime/thread_pool.hpp"
#include "si/blocks.hpp"
#include "si/common_mode.hpp"
#include "si/delay_line.hpp"
#include "si/filter.hpp"
#include "si/memory_cell.hpp"
#include "si/netlists.hpp"
#include "si/noise_model.hpp"
#include "erc/check.hpp"
#include "erc/diagnostics.hpp"
#include "si/power_area.hpp"
#include "si/supply.hpp"
#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/deck.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "spice/noise.hpp"
#include "spice/op_report.hpp"
#include "spice/parser.hpp"
#include "spice/transient.hpp"
#include "spice/waveform.hpp"
#include "verify/interval.hpp"
#include "verify/phase.hpp"
#include "verify/verify.hpp"
