/**
 * @file
 * Stream-rewriting pass framework: the stand-in for the paper's LLVM
 * instrumentation pipeline (SIV-B).
 *
 * A Pass consumes micro-ops from an upstream InstStream and emits zero
 * or more ops per input. PassManager chains passes so that, e.g., the
 * AOS optimizer pass (intrinsic insertion) feeds the AOS backend pass
 * (instruction lowering), mirroring the AOS-opt-pass / AOS-backend-pass
 * split of the paper.
 */

#ifndef AOS_COMPILER_PASS_HH
#define AOS_COMPILER_PASS_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ir/micro_op.hh"

namespace aos::compiler {

/**
 * Base class for stream-rewriting passes.
 *
 * Passes process the stream in blocks (DESIGN.md §14): a refill pulls
 * up to a window of input ops from upstream in one nextBatch() call and
 * hands the whole block to transformBatch(), which by default rewrites
 * each op in order via transform(). Output ops accumulate in a pooled
 * vector and are served from a head cursor, so steady state costs one
 * upstream dispatch per window instead of a virtual-call chain plus
 * deque churn per op. The emitted op sequence is exactly what per-op
 * transformation would produce — block boundaries are unobservable.
 */
class Pass : public ir::InstStream
{
  public:
    /** Default input ops pulled per refill. */
    static constexpr size_t kDefaultWindow = 256;

    /**
     * @param source Upstream producer; not owned.
     * @param window Input ops pulled per refill; passes that scan for
     *        batchable work across the block (the AOS backend) widen it.
     */
    explicit Pass(ir::InstStream *source, size_t window = kDefaultWindow)
        : _source(source), _window(window)
    {
    }

    bool
    next(ir::MicroOp &op) override
    {
        if (_head == _pending.size() && !refill())
            return false;
        op = _pending[_head++];
        return true;
    }

    size_t
    nextBatch(ir::MicroOp *out, size_t max) override
    {
        size_t k = 0;
        while (k < max) {
            if (_head == _pending.size() && !refill())
                break;
            const size_t take =
                std::min(max - k, _pending.size() - _head);
            std::copy_n(_pending.data() + _head, take, out + k);
            _head += take;
            k += take;
        }
        return k;
    }

  protected:
    /** Rewrite one input op; call emit() for each output op. */
    virtual void transform(const ir::MicroOp &in) = 0;

    /**
     * Rewrite a block of inputs in order. Override to look across the
     * block (e.g. to collect PAC requests for one batched signing
     * sweep); must emit exactly what per-op transform() calls would.
     */
    virtual void
    transformBatch(const ir::MicroOp *in, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            transform(in[i]);
    }

    void emit(const ir::MicroOp &op) { _pending.push_back(op); }

    /** Bulk emit for pass-through blocks: one copy, no per-op calls. */
    void
    emitAll(const ir::MicroOp *ops, size_t n)
    {
        _pending.insert(_pending.end(), ops, ops + n);
    }

    ir::MicroOp
    makeOp(ir::OpKind kind, Addr addr = 0, u32 size = 0) const
    {
        ir::MicroOp op;
        op.kind = kind;
        op.addr = addr;
        op.size = size;
        return op;
    }

  private:
    bool
    refill()
    {
        _pending.clear();
        _head = 0;
        // A block can legally emit nothing (every input filtered);
        // keep pulling until something lands or upstream runs dry.
        while (_pending.empty()) {
            if (_inBuf.size() < _window)
                _inBuf.resize(_window);
            const size_t n = _source->nextBatch(_inBuf.data(), _window);
            if (n == 0)
                return false;
            transformBatch(_inBuf.data(), n);
        }
        return true;
    }

    ir::InstStream *_source;
    size_t _window;
    std::vector<ir::MicroOp> _inBuf;
    std::vector<ir::MicroOp> _pending;
    size_t _head = 0;
};

/** Owns a chain of passes over a source stream. */
class PassManager : public ir::InstStream
{
  public:
    explicit PassManager(ir::InstStream *source) : _tail(source) {}

    /** Append a pass constructed over the current tail. */
    template <typename PassT, typename... Args>
    PassT *
    add(Args &&...args)
    {
        auto pass =
            std::make_unique<PassT>(_tail, std::forward<Args>(args)...);
        PassT *raw = pass.get();
        _passes.push_back(std::move(pass));
        _tail = raw;
        return raw;
    }

    bool next(ir::MicroOp &op) override { return _tail->next(op); }

    size_t
    nextBatch(ir::MicroOp *out, size_t max) override
    {
        return _tail->nextBatch(out, max);
    }

    std::string name() const override { return "pass_manager"; }

    /** The chained passes' names, the source side first. */
    std::vector<std::string>
    passNames() const
    {
        std::vector<std::string> names;
        for (const auto &pass : _passes)
            names.push_back(pass->name());
        return names;
    }

  private:
    ir::InstStream *_tail;
    std::vector<std::unique_ptr<ir::InstStream>> _passes;
};

} // namespace aos::compiler

#endif // AOS_COMPILER_PASS_HH
