#include "core/reactive_handover.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "core/invariants.hpp"

namespace st::core {

ReactiveHandover::ReactiveHandover(sim::Simulator& simulator,
                                   net::RadioEnvironment& environment,
                                   ProtocolConfig config)
    : simulator_(simulator),
      environment_(environment),
      config_(config),
      beamsurfer_(simulator, environment, config.rss_rule, config.beamsurfer) {
  if (environment.cell_count() < 2) {
    throw std::invalid_argument("ReactiveHandover: needs >= 2 cells");
  }
  // A reactive mobile has no plan B: an undeliverable switch request is
  // treated the same as RLF.
  beamsurfer_.set_loss_callback(
      [this](std::string_view /*reason*/) { on_serving_lost(); });
}

ReactiveHandover::~ReactiveHandover() { stop(); }

void ReactiveHandover::start(net::CellId serving_cell,
                             phy::BeamId serving_rx_beam,
                             double serving_rss_dbm,
                             HandoverCallback on_handover) {
  if (on_handover == nullptr) {
    throw std::invalid_argument("ReactiveHandover: null callback");
  }
  serving_ = serving_cell;
  serving_alive_ = true;
  rounds_ = 0;
  on_handover_ = std::move(on_handover);
  record_ = net::HandoverRecord{};
  record_.from = serving_cell;
  ST_INVARIANT(invariants::check_handover_type_transition(
      record_.type, net::HandoverType::kHard));
  record_.type = net::HandoverType::kHard;  // always, by construction

  beamsurfer_.set_sinks(emit_.sinks);
  beamsurfer_.start(serving_cell, serving_rx_beam, serving_rss_dbm);
}

void ReactiveHandover::stop() {
  beamsurfer_.stop();
  if (search_ != nullptr) {
    search_->abort();
  }
  if (rach_ != nullptr) {
    rach_->abort();
  }
  on_handover_ = nullptr;
}

void ReactiveHandover::on_serving_lost() {
  serving_alive_ = false;
  record_.serving_lost = simulator_.now();
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kServingLost,
              .cell = serving_});
  next_round();
}

void ReactiveHandover::next_round() {
  if (rounds_ >= config_.max_rounds) {
    complete(false);
    return;
  }
  ++rounds_;
  emit_.count(obs::ProtocolCounter::kReactiveSearchRounds);
  std::vector<net::CellId> candidates;
  candidates.reserve(environment_.cell_count());
  for (net::CellId c = 0; c < environment_.cell_count(); ++c) {
    if (c != serving_) {
      candidates.push_back(c);
    }
  }
  search_ = std::make_unique<net::CellSearch>(simulator_, environment_,
                                              std::move(candidates),
                                              config_.search);
  search_->set_sinks(emit_.sinks);
  search_->start([this](const net::SearchOutcome& o) { on_search_done(o); });
}

void ReactiveHandover::on_search_done(const net::SearchOutcome& outcome) {
  if (!outcome.found) {
    next_round();
    return;
  }
  ST_INVARIANT(invariants::check_rach_entry(
      outcome.cell, serving_, outcome.tx_beam,
      environment_.bs(outcome.cell).codebook().size(), outcome.rx_beam,
      environment_.ue_codebook().size()));
  record_.to = outcome.cell;
  record_.access_started = simulator_.now();
  record_.target_tx_beam = outcome.tx_beam;
  found_rx_beam_ = outcome.rx_beam;

  rach_ = std::make_unique<net::RachProcedure>(simulator_, environment_,
                                               config_.rach);
  rach_->set_sinks(emit_.sinks);
  // The beam is frozen at what the search found: no tracking happens
  // between search and (possibly many) RACH attempts.
  rach_->start(
      outcome.cell, outcome.tx_beam, [this] { return found_rx_beam_; },
      [this](const net::RachOutcome& o) { on_rach_done(o); });
}

void ReactiveHandover::on_rach_done(const net::RachOutcome& outcome) {
  record_.rach_attempts += outcome.attempts;
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kRachOutcome,
              .cell = record_.to,
              .value = static_cast<double>(outcome.attempts),
              .value2 = outcome.latency.ms(),
              .flag = outcome.success});
  if (outcome.success) {
    complete(true);
  } else {
    next_round();
  }
}

void ReactiveHandover::complete(bool success) {
  record_.success = success;
  record_.completed = simulator_.now();
  record_.final_rx_beam = found_rx_beam_;
  emit_.emit({.t = simulator_.now(),
              .type = obs::TraceEventType::kHandoverComplete,
              .cell = record_.to,
              .beam_b = record_.final_rx_beam,
              .value = record_.interruption().ms(),
              .flag = success});
  if (on_handover_) {
    HandoverCallback cb = std::move(on_handover_);
    on_handover_ = nullptr;
    cb(record_);
  }
}

}  // namespace st::core
