#ifndef COBRA_KERNEL_MIL_PROGRAM_H_
#define COBRA_KERNEL_MIL_PROGRAM_H_

// The MIL front end, internal to the kernel. One parse turns a script into
// a positioned program; one table states every MIL function's name,
// signature and span; one function states each rule that depends on a
// value. The interpreter (mil.cc) and the abstract interpreter
// (mil_analyzer.cc) walk the same program through the same table and apply
// the same rules — the analyzer to statically known values, the
// interpreter to computed ones — so their diagnostics agree by
// construction.

#include <string>
#include <vector>

#include "base/diag.h"
#include "base/status.h"
#include "kernel/bat.h"
#include "kernel/mil.h"

namespace cobra::kernel {

/// The kind of a MIL value, in the order of MilValue's alternatives.
enum class MilKind { kBat, kNumber, kString };

inline MilKind KindOf(const MilValue& v) {
  return static_cast<MilKind>(v.index());
}

/// One MIL function: its name, signature and trace span, stated once.
struct MilOp {
  enum class Code {
    kBat,
    kPersist,
    kNew,
    kInsert,
    kSelectStr,
    kSelectRange,
    kThreadcnt,
    kShards,
    kJoin,
    kSemijoin,
    kDiff,
    kConcat,
    kGroup,
    kArgmax,
    kInfo,
    kReverse,
    kMirror,
    kSlice,
    kSum,
    kMax,
    kMin,
    kCount
  };
  /// One parameter: a bit per accepted MilKind; the argument's name in
  /// kind-mismatch messages (null: the function's name) or, for a
  /// string-only parameter, the whole message; and whether a number is cast
  /// to an integer, so its value must be in range.
  struct Param {
    enum class Int { kNo, kUnsigned, kSigned };
    unsigned kinds;
    const char* what = nullptr;
    Int integer = Int::kNo;
  };
  Code code;
  const char* name;
  std::vector<Param> params;
  /// The `mil.*` span wrapping each call, or null. A call with a span gets
  /// the analyzer's PlanFact: its static interval is stamped on the span.
  const char* span = nullptr;
};

/// A 1-based source position: the first character of a token.
struct MilPos {
  int line = 1;
  int col = 1;
};

/// An expression, positioned at its first token.
struct MilExpr : MilPos {
  enum class Kind { kNumber, kString, kVar, kCall };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  /// The string literal, the variable name, or the function name.
  std::string text;
  /// kCall: the function, resolved against the table by name and arity.
  const MilOp* op = nullptr;
  std::vector<MilExpr> args;
};

/// A statement, positioned at its first token. `name` is the VAR or
/// assignment target, or the keyword of trace/check/save/load/checkpoint.
/// `expr` is the value of VAR/assignment/PRINT/expression statements, or
/// the argument of trace (the mode word) and check/save/load (the quoted
/// text) as a kString node.
struct MilStmt : MilPos {
  enum class Kind {
    kVar,
    kAssign,
    kPrint,
    kExpr,
    kTrace,
    kCheck,
    kSave,
    kLoad,
    kCheckpoint
  };
  Kind kind = Kind::kExpr;
  std::string name;
  MilExpr expr;
};

using MilProgram = std::vector<MilStmt>;

/// The one parse of a script. Every syntax error is the parser's: a bad
/// token, a grammar violation, a missing ';', nesting past the limit, an
/// unknown function or a call's arity. The first one stops the parse and
/// is the only diagnostic added to *diags; the program is then partial.
MilProgram ParseMilScript(const std::string& script, DiagnosticList* diags);

/// AnalyzeMilScriptWithFacts over an already parsed, syntax-clean program.
MilAnalysis AnalyzeMilProgram(const MilProgram& program,
                              const MilAnalysisContext& context);

// -- Rules on values ---------------------------------------------------------
// Each returns the error both walkers report: the analyzer at the position
// it names, the interpreter without one.

/// The signature check: argument i of `op`, of kind `kind` and — when
/// known — numeric value *number. A number cast to an integer (a slice
/// position, an insert head) must be representable: a NaN, infinite or
/// out-of-range cast is undefined behaviour, so it is an InvalidArgument.
Status CheckMilArg(const MilOp& op, size_t i, MilKind kind,
                   const double* number);

/// insert(b, head, tail): the tail's kind (and integer range) follows b's
/// tail type.
Status MilInsertTail(TailType tail, MilKind kind, const double* number);

/// new(type): the tail type a type name denotes.
Result<TailType> MilNewType(const std::string& type);

/// threadcnt(n) / shards(n): n is an integer in [1, MilCountLimit(op)].
double MilCountLimit(const MilOp& op);
Status MilCountRange(const MilOp& op, double n);

/// concat(a, b): both tails have the same type.
Status MilConcatTails(TailType a, TailType b);

/// save/load/checkpoint: storage is per-shard while `shards` exceeds 1, and
/// checkpoint needs an attached data directory.
Status MilStorageRule(const MilStmt& stmt, int shards, bool data_dir_attached);

/// trace dump|json: needs the sink an earlier `trace on` created.
Status MilTraceRule(const MilStmt& stmt, bool sink_ready);

}  // namespace cobra::kernel

#endif  // COBRA_KERNEL_MIL_PROGRAM_H_
