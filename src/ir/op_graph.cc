#include "src/ir/op_graph.h"

#include <algorithm>
#include <sstream>

#include "src/common/hash.h"
#include "src/common/units.h"

namespace aceso {

double OpGraph::TotalFwdFlops() const {
  double total = 0.0;
  for (const Operator& op : ops_) {
    total += op.fwd_flops;
  }
  return total;
}

int64_t OpGraph::TotalParamBytes() const {
  int64_t total = 0;
  for (const Operator& op : ops_) {
    total += op.param_bytes;
  }
  return total;
}

int64_t OpGraph::TotalParamCount() const {
  return TotalParamBytes() / BytesPerElement(precision_);
}

int64_t OpGraph::TotalActivationBytes() const {
  int64_t total = 0;
  for (const Operator& op : ops_) {
    total += op.out_bytes;
  }
  return total;
}

void OpGraph::AddOp(Operator op) {
  op_signatures_.push_back(op.Signature());
  ops_.push_back(std::move(op));
  fingerprint_.Reset();
  period_table_.Reset();
}

const OpGraph::PeriodTable* OpGraph::LazyPeriodTable::Publish(
    std::unique_ptr<PeriodTable> table) const {
  const PeriodTable* expected = nullptr;
  if (table_.compare_exchange_strong(expected, table.get(),
                                     std::memory_order_acq_rel)) {
    return table.release();
  }
  return expected;  // a concurrent caller published first
}

const OpGraph::PeriodTable& OpGraph::period_table() const {
  const PeriodTable* table = period_table_.Load();
  if (table == nullptr) {
    table = period_table_.Publish(ComputePeriodTable());
  }
  return *table;
}

namespace {

// Every field but the name: what the cost model, Validate and the semantic
// words read of an op.
bool SameOperator(const Operator& a, const Operator& b) {
  return a.kind == b.kind && a.fwd_flops == b.fwd_flops &&
         a.param_bytes == b.param_bytes && a.in_bytes == b.in_bytes &&
         a.out_bytes == b.out_bytes && a.work_bytes == b.work_bytes &&
         a.max_tp == b.max_tp && a.tp_class == b.tp_class &&
         a.default_tp_dim == b.default_tp_dim;
}

}  // namespace

std::unique_ptr<OpGraph::PeriodTable> OpGraph::ComputePeriodTable() const {
  auto table = std::make_unique<PeriodTable>();
  const int n = num_ops();
  int best_matches = 0;
  for (int p = 1; p <= std::min(kMaxLayerPeriod, n / 2); ++p) {
    int matches = 0;
    for (int g = p; g < n; ++g) {
      matches += op_signatures_[static_cast<size_t>(g)] ==
                 op_signatures_[static_cast<size_t>(g - p)];
    }
    if (matches > best_matches) {
      best_matches = matches;
      table->period = p;
    }
  }
  // A graph whose ops mostly do not repeat gets no period: sweeping its
  // stages costs more than the blocks it saves (wresnet-2b, 62% of ops
  // repeating: Validate on a new 165-op stage 0.63 -> 0.80-1.39 us).
  if (4 * best_matches < 3 * n) {
    table->period = 0;
  }
  table->repeats.assign(static_cast<size_t>(n), 0);
  table->layout_source.resize(static_cast<size_t>(n));
  const int p = table->period;
  int source = -1;
  for (int g = 0; g < n; ++g) {
    const Operator& op = ops_[static_cast<size_t>(g)];
    if (p > 0 && g >= p) {
      table->repeats[static_cast<size_t>(g)] =
          SameOperator(op, ops_[static_cast<size_t>(g - p)]) ? 1 : 0;
    }
    table->layout_source[static_cast<size_t>(g)] = source;
    if (op.tp_class != TpClass::kShardFollower) {
      source = g;
    }
  }
  return table;
}

uint64_t OpGraph::SemanticFingerprint() const {
  uint64_t fingerprint = fingerprint_.Load();
  if (fingerprint == 0) {
    fingerprint = ComputeSemanticFingerprint();
    fingerprint_.Store(fingerprint);
  }
  return fingerprint;
}

uint64_t OpGraph::ComputeSemanticFingerprint() const {
  Hasher h;
  h.Add(static_cast<int>(precision_));
  h.Add(global_batch_size_);
  h.Add(num_ops());
  for (size_t i = 0; i < ops_.size(); ++i) {
    Hasher per_op;
    per_op.Add(op_signatures_[i]);
    per_op.Add(static_cast<int>(ops_[i].default_tp_dim));
    h.Add(Mix64(per_op.Digest()));
  }
  return h.Digest();
}

std::string OpGraph::Summary() const {
  std::ostringstream oss;
  oss << name_ << ": " << num_ops() << " ops, "
      << FormatDouble(static_cast<double>(TotalParamCount()) / 1e9, 2)
      << "B params, " << FormatFlops(TotalFwdFlops()) << "/sample fwd, "
      << PrecisionName(precision_) << ", batch " << global_batch_size_;
  return oss.str();
}

}  // namespace aceso
