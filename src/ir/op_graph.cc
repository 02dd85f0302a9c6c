#include "src/ir/op_graph.h"

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
