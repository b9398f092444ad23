#include "interp.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hintm
{
namespace tir
{

namespace
{

// TxIR integer arithmetic wraps (two's complement). Do the math in
// uint64_t, where overflow is defined, so both interpreters are UB-free
// under -fsanitize=undefined and agree bit-for-bit on overflow.
constexpr std::int64_t
wAdd(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) + std::uint64_t(b));
}

constexpr std::int64_t
wSub(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) - std::uint64_t(b));
}

constexpr std::int64_t
wMul(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) * std::uint64_t(b));
}

constexpr std::int64_t
wShl(std::int64_t a, unsigned s)
{
    return std::int64_t(std::uint64_t(a) << s);
}

} // namespace

Program::Program(Module mod, unsigned num_threads, std::uint64_t seed,
                 bool decode_cache)
    : mod_(std::move(mod)), numThreads_(num_threads),
      allocator_(num_threads + 1)
{
    HINTM_ASSERT(num_threads >= 1, "need at least one thread");
    // Globals live block-aligned in a dedicated region, like a .data
    // section: distinct variables never share a cache block, but they do
    // share pages (which dynamic classification will see as shared).
    Addr next = layout::globalsBase;
    for (auto &g : mod_.globals) {
        g.addr = next;
        const Addr sz = (g.sizeBytes + blockBytes - 1) & ~(blockBytes - 1);
        next += sz;
    }
    for (unsigned t = 0; t <= num_threads; ++t)
        rngs_.emplace_back(seed + 7919 * (t + 1));
    // Decode after global layout so GlobalAddr folds to final addresses.
    if (decode_cache)
        decoded_ = std::make_unique<DecodedModule>(decodeModule(mod_));
}

Addr
Program::globalAddr(int global_id) const
{
    HINTM_ASSERT(global_id >= 0 &&
                     global_id < int(mod_.globals.size()),
                 "bad global id ", global_id);
    return mod_.globals[global_id].addr;
}

Addr
Program::globalAddrByName(const std::string &name) const
{
    const int g = mod_.findGlobal(name);
    HINTM_ASSERT(g >= 0, "unknown global ", name);
    return mod_.globals[g].addr;
}

ThreadInterp::ThreadInterp(Program &prog, ThreadId tid, int entry_func,
                           std::vector<std::int64_t> args)
    : prog_(prog), tid_(tid), dec_(prog.decoded()),
      stackPtr_(layout::stackBase(tid))
{
    const auto &fns = prog.module().functions;
    HINTM_ASSERT(entry_func >= 0 && entry_func < int(fns.size()),
                 "bad entry function");
    const Function &fn = fns[entry_func];
    HINTM_ASSERT(args.size() == fn.numParams, "entry arity mismatch for ",
                 fn.name);
    FrameMeta f;
    f.fn = entry_func;
    f.regBase = 0;
    f.numRegs = fn.numRegs;
    f.stackOnEntry = stackPtr_;
    regs_.assign(fn.numRegs, 0);
    std::copy(args.begin(), args.end(), regs_.begin());
    frames_.push_back(f);
}

const Instr &
ThreadInterp::currentInstr() const
{
    HINTM_ASSERT(!frames_.empty(), "no active frame");
    const FrameMeta &f = frames_.back();
    const Function &fn = prog_.module().functions[f.fn];
    HINTM_ASSERT(f.block < int(fn.blocks.size()), "bad block in ",
                 fn.name);
    const auto &instrs = fn.blocks[f.block].instrs;
    HINTM_ASSERT(f.ip < int(instrs.size()), "fell off block ", f.block,
                 " of ", fn.name);
    return instrs[f.ip];
}

const DecodedOp &
ThreadInterp::currentDOp() const
{
    HINTM_ASSERT(dec_ && !frames_.empty(), "no active decoded frame");
    const FrameMeta &f = frames_.back();
    return dec_->fns[std::size_t(f.fn)].ops[std::size_t(f.ip)];
}

bool
ThreadInterp::atBoundary(Opcode op, DOp dop) const
{
    if (dec_) {
        const DOp cur = currentDOp().op;
        // The fused memory forms stop at the same boundary kind.
        if (dop == DOp::Load)
            return cur == DOp::Load || cur == DOp::GepLoad;
        if (dop == DOp::Store)
            return cur == DOp::Store || cur == DOp::GepStore;
        return cur == dop;
    }
    return currentInstr().op == op;
}

std::int64_t
ThreadInterp::reg(int r) const
{
    const FrameMeta &f = frames_.back();
    HINTM_ASSERT(r >= 0 && std::uint32_t(r) < f.numRegs,
                 "bad register r", r);
    return regs_[f.regBase + std::uint32_t(r)];
}

void
ThreadInterp::setReg(int r, std::int64_t v)
{
    const FrameMeta &f = frames_.back();
    HINTM_ASSERT(r >= 0 && std::uint32_t(r) < f.numRegs,
                 "bad register r", r);
    regs_[f.regBase + std::uint32_t(r)] = v;
}

void
ThreadInterp::advance()
{
    ++frames_.back().ip;
}

void
ThreadInterp::pushFrame(int fn, std::uint32_t num_regs, int ret_dst,
                        const std::int32_t *arg_regs, std::size_t num_args)
{
    const FrameMeta &caller = frames_.back();
    const std::uint32_t base = caller.regBase + caller.numRegs;
    if (regs_.size() < base + num_regs)
        regs_.resize(base + num_regs);
    std::fill_n(regs_.begin() + base, num_regs, 0);
    for (std::size_t i = 0; i < num_args; ++i)
        regs_[base + i] = regs_[caller.regBase +
                                std::uint32_t(arg_regs[i])];
    FrameMeta nf;
    nf.fn = fn;
    nf.retDst = ret_dst;
    nf.regBase = base;
    nf.numRegs = num_regs;
    nf.stackOnEntry = stackPtr_;
    frames_.push_back(nf);
    HINTM_ASSERT(frames_.size() < 512, "call stack overflow");
}

namespace
{

/** Straight-line opcodes neither end a basic block nor stop the
 * interpreter at a boundary: next() can execute them back-to-back
 * without re-resolving the active frame/block. */
constexpr bool
isStraightLine(Opcode op)
{
    switch (op) {
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::TxBegin:
      case Opcode::TxEnd:
      case Opcode::Barrier:
      case Opcode::Annotate: // boundaries
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Call:
      case Opcode::Ret:      // control flow
        return false;
      default:
        return true;
    }
}

} // namespace

Step
ThreadInterp::next()
{
    Step st;
    if (done_) {
        st.kind = StepKind::Done;
        return st;
    }
    HINTM_ASSERT(!memPending_, "next() with unfinished memory access");
    return dec_ ? nextDec() : nextRef();
}

Step
ThreadInterp::nextRef()
{
    Step st;
    while (true) {
        // Resolve the frame's instruction span once per control-flow
        // change instead of once per instruction: straight-line opcodes
        // never push/pop frames or leave the block, so the span stays
        // valid while they execute back-to-back.
        FrameMeta &f = frames_.back();
        const Function &fn = prog_.module().functions[f.fn];
        HINTM_ASSERT(f.block < int(fn.blocks.size()), "bad block in ",
                     fn.name);
        const auto &instrs = fn.blocks[f.block].instrs;
        const int n = int(instrs.size());
        HINTM_ASSERT(f.ip < n, "fell off block ", f.block, " of ",
                     fn.name);
        while (f.ip < n && isStraightLine(instrs[f.ip].op)) {
            execute(instrs[f.ip]);
            ++st.simpleInstrs;
            ++instrCount_;
            HINTM_ASSERT(st.simpleInstrs < 500000000ull,
                         "runaway non-memory loop");
        }
        HINTM_ASSERT(f.ip < n, "fell off block ", f.block, " of ",
                     fn.name);
        const Instr &ins = instrs[f.ip];
        switch (ins.op) {
          case Opcode::Load:
          case Opcode::Store:
            pendingAddr_ = Addr(wAdd(reg(ins.a), ins.imm));
            memPending_ = true;
            st.kind = StepKind::Mem;
            st.addr = pendingAddr_;
            st.accessType = ins.op == Opcode::Load ? AccessType::Read
                                                   : AccessType::Write;
            st.staticSafe = ins.safe;
            st.fn = std::int32_t(f.fn);
            st.srcBlock = std::int32_t(f.block);
            st.srcInstr = std::int32_t(f.ip);
            return st;
          case Opcode::TxBegin:
            st.kind = StepKind::TxBegin;
            st.fn = std::int32_t(f.fn);
            st.srcBlock = std::int32_t(f.block);
            st.srcInstr = std::int32_t(f.ip);
            return st;
          case Opcode::TxEnd:
            st.kind = StepKind::TxEnd;
            return st;
          case Opcode::Barrier:
            st.kind = StepKind::Barrier;
            return st;
          case Opcode::Annotate:
            st.kind = StepKind::Annotate;
            st.addr = Addr(reg(ins.a));
            st.annotateLen = std::uint64_t(reg(ins.b));
            return st;
          default:
            // Control flow (Br/CondBr/Call/Ret): execute, then
            // re-resolve the frame span.
            execute(ins);
            ++st.simpleInstrs;
            ++instrCount_;
            if (done_) {
                st.kind = StepKind::Done;
                return st;
            }
            HINTM_ASSERT(st.simpleInstrs < 500000000ull,
                         "runaway non-memory loop");
        }
    }
}

Step
ThreadInterp::nextDec()
{
    // Hot loop. Registers, op stream and program counter live in locals;
    // operand validity was established at decode time, so there are no
    // per-access range asserts here. The locals are reloaded after every
    // Call/Ret (frames_/regs_ may reallocate).
    Step st;
    FrameMeta *f = &frames_.back();
    const DecodedFunction *df = &dec_->fns[std::size_t(f->fn)];
    const DecodedOp *ops = df->ops.data();
    std::int64_t *R = regs_.data() + f->regBase;
    std::int32_t pc = f->ip;
    std::uint64_t n = 0;

    const auto flush = [&](StepKind kind) {
        f->ip = pc;
        st.kind = kind;
        st.simpleInstrs += n;
        instrCount_ += n;
    };

    while (true) {
        const DecodedOp &o = ops[pc];
        switch (o.op) {
          case DOp::Const: R[o.dst] = o.imm; ++n; ++pc; break;
          case DOp::Mov: R[o.dst] = R[o.a]; ++n; ++pc; break;

          case DOp::Add: R[o.dst] = wAdd(R[o.a], R[o.b]); ++n; ++pc; break;
          case DOp::Sub: R[o.dst] = wSub(R[o.a], R[o.b]); ++n; ++pc; break;
          case DOp::Mul: R[o.dst] = wMul(R[o.a], R[o.b]); ++n; ++pc; break;
          case DOp::Div:
            HINTM_ASSERT(R[o.b] != 0, "division by zero");
            R[o.dst] = R[o.a] / R[o.b];
            ++n; ++pc;
            break;
          case DOp::Mod:
            HINTM_ASSERT(R[o.b] != 0, "modulo by zero");
            R[o.dst] = R[o.a] % R[o.b];
            ++n; ++pc;
            break;
          case DOp::And: R[o.dst] = R[o.a] & R[o.b]; ++n; ++pc; break;
          case DOp::Or: R[o.dst] = R[o.a] | R[o.b]; ++n; ++pc; break;
          case DOp::Xor: R[o.dst] = R[o.a] ^ R[o.b]; ++n; ++pc; break;
          case DOp::Shl:
            R[o.dst] = wShl(R[o.a], unsigned(R[o.b]) & 63u);
            ++n; ++pc;
            break;
          case DOp::Shr:
            R[o.dst] = std::int64_t(std::uint64_t(R[o.a]) >>
                                    (unsigned(R[o.b]) & 63u));
            ++n; ++pc;
            break;
          case DOp::CmpEq: R[o.dst] = R[o.a] == R[o.b]; ++n; ++pc; break;
          case DOp::CmpNe: R[o.dst] = R[o.a] != R[o.b]; ++n; ++pc; break;
          case DOp::CmpLt: R[o.dst] = R[o.a] < R[o.b]; ++n; ++pc; break;
          case DOp::CmpLe: R[o.dst] = R[o.a] <= R[o.b]; ++n; ++pc; break;
          case DOp::CmpGt: R[o.dst] = R[o.a] > R[o.b]; ++n; ++pc; break;
          case DOp::CmpGe: R[o.dst] = R[o.a] >= R[o.b]; ++n; ++pc; break;

          // Fused Const + ALU: the Const's register write is preserved
          // (non-SSA IR — later code may read it). Writing xdst first
          // then reading R[o.a] matches the reference order even when
          // a aliases xdst. DivI/ModI: decode never folds a zero
          // divisor, so the reference's runtime assert cannot fire.
          case DOp::AddI:
            R[o.xdst] = o.ximm; R[o.dst] = wAdd(R[o.a], o.ximm);
            n += 2; ++pc;
            break;
          case DOp::SubI:
            R[o.xdst] = o.ximm; R[o.dst] = wSub(R[o.a], o.ximm);
            n += 2; ++pc;
            break;
          case DOp::MulI:
            R[o.xdst] = o.ximm; R[o.dst] = wMul(R[o.a], o.ximm);
            n += 2; ++pc;
            break;
          case DOp::DivI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] / o.ximm;
            n += 2; ++pc;
            break;
          case DOp::ModI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] % o.ximm;
            n += 2; ++pc;
            break;
          case DOp::AndI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] & o.ximm;
            n += 2; ++pc;
            break;
          case DOp::OrI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] | o.ximm;
            n += 2; ++pc;
            break;
          case DOp::XorI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] ^ o.ximm;
            n += 2; ++pc;
            break;
          case DOp::ShlI:
            R[o.xdst] = o.ximm;
            R[o.dst] = wShl(R[o.a], unsigned(o.ximm) & 63u);
            n += 2; ++pc;
            break;
          case DOp::ShrI:
            R[o.xdst] = o.ximm;
            R[o.dst] = std::int64_t(std::uint64_t(R[o.a]) >>
                                    (unsigned(o.ximm) & 63u));
            n += 2; ++pc;
            break;
          case DOp::CmpEqI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] == o.ximm;
            n += 2; ++pc;
            break;
          case DOp::CmpNeI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] != o.ximm;
            n += 2; ++pc;
            break;
          case DOp::CmpLtI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] < o.ximm;
            n += 2; ++pc;
            break;
          case DOp::CmpLeI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] <= o.ximm;
            n += 2; ++pc;
            break;
          case DOp::CmpGtI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] > o.ximm;
            n += 2; ++pc;
            break;
          case DOp::CmpGeI:
            R[o.xdst] = o.ximm; R[o.dst] = R[o.a] >= o.ximm;
            n += 2; ++pc;
            break;

          case DOp::Alloca: {
            const Addr size = (Addr(o.imm) + 7) & ~Addr(7);
            const Addr base = stackPtr_;
            stackPtr_ += size;
            HINTM_ASSERT(stackPtr_ <
                             layout::stackBase(tid_) + layout::stackStride,
                         "stack overflow on thread ", tid_);
            R[o.dst] = std::int64_t(base);
            ++n; ++pc;
            break;
          }
          case DOp::Malloc: {
            const std::int64_t size = R[o.a];
            HINTM_ASSERT(size > 0, "malloc of non-positive size");
            const Addr p = prog_.allocator().alloc(unsigned(tid_),
                                                   std::uint64_t(size));
            if (inTx_ && htmMode_)
                txAllocs_.push_back(p);
            R[o.dst] = std::int64_t(p);
            ++n; ++pc;
            break;
          }
          case DOp::Free: {
            const Addr p = Addr(R[o.a]);
            if (inTx_)
                deferredFrees_.push_back(p);
            else
                prog_.allocator().release(p);
            ++n; ++pc;
            break;
          }
          case DOp::Gep: {
            std::int64_t v = R[o.a];
            if (o.b >= 0)
                v = wAdd(v, wMul(R[o.b], o.imm));
            v = wAdd(v, o.imm2);
            R[o.dst] = v;
            ++n; ++pc;
            break;
          }

          case DOp::Load:
          case DOp::Store:
            pendingAddr_ = Addr(wAdd(R[o.a], o.imm));
            memPending_ = true;
            pendingDOp_ = &o;
            pendingRegs_ = R;
            flush(StepKind::Mem);
            st.addr = pendingAddr_;
            st.accessType = o.op == DOp::Load ? AccessType::Read
                                              : AccessType::Write;
            st.staticSafe = o.safe;
            st.fn = std::int32_t(f->fn);
            st.srcBlock = df->srcRefs[std::size_t(pc)].block;
            st.srcInstr = df->srcRefs[std::size_t(pc)].instr;
            return st;
          case DOp::GepLoad:
          case DOp::GepStore: {
            // The fused Gep executes (and counts) now; the access itself
            // is counted by completeMem(), exactly like the reference.
            std::int64_t v = R[o.a];
            if (o.b >= 0)
                v = wAdd(v, wMul(R[o.b], o.imm));
            v = wAdd(v, o.imm2);
            R[o.xdst] = v;
            ++n;
            pendingAddr_ = Addr(wAdd(v, o.ximm));
            memPending_ = true;
            pendingDOp_ = &o;
            pendingRegs_ = R;
            flush(StepKind::Mem);
            st.addr = pendingAddr_;
            st.accessType = o.op == DOp::GepLoad ? AccessType::Read
                                                 : AccessType::Write;
            st.staticSafe = o.safe;
            st.fn = std::int32_t(f->fn);
            st.srcBlock = df->srcRefs[std::size_t(pc)].block;
            st.srcInstr = df->srcRefs[std::size_t(pc)].instr;
            return st;
          }

          case DOp::Jmp: ++n; pc = o.t1; break;
          case DOp::CondJmp:
            ++n;
            pc = R[o.a] != 0 ? o.t1 : o.t2;
            break;
          case DOp::CmpBr: {
            const bool taken = evalCond(o.cc, R[o.a], R[o.b]);
            R[o.dst] = taken;
            n += 2;
            pc = taken ? o.t1 : o.t2;
            break;
          }
          case DOp::CmpBrI: {
            R[o.xdst] = o.ximm;
            const bool taken = evalCond(o.cc, R[o.a], o.ximm);
            R[o.dst] = taken;
            n += 3;
            pc = taken ? o.t1 : o.t2;
            break;
          }

          case DOp::Call: {
            ++n;
            f->ip = pc + 1; // resume after the call on return
            const DecodedFunction &callee =
                dec_->fns[std::size_t(o.imm)];
            pushFrame(int(o.imm), callee.numRegs, o.dst,
                      df->argPool.data() + o.argsBegin, o.argsCount);
            f = &frames_.back();
            df = &callee;
            ops = df->ops.data();
            R = regs_.data() + f->regBase;
            pc = 0;
            break;
          }
          case DOp::Ret: {
            ++n;
            const std::int64_t v = o.a >= 0 ? R[o.a] : 0;
            const std::int32_t ret_dst = f->retDst;
            stackPtr_ = f->stackOnEntry;
            frames_.pop_back();
            if (frames_.empty()) {
                done_ = true;
                st.kind = StepKind::Done;
                st.simpleInstrs += n;
                instrCount_ += n;
                return st;
            }
            f = &frames_.back();
            df = &dec_->fns[std::size_t(f->fn)];
            ops = df->ops.data();
            R = regs_.data() + f->regBase;
            pc = f->ip;
            if (ret_dst >= 0)
                R[ret_dst] = v;
            break;
          }

          case DOp::TxBegin:
            flush(StepKind::TxBegin);
            st.fn = std::int32_t(f->fn);
            st.srcBlock = df->srcRefs[std::size_t(pc)].block;
            st.srcInstr = df->srcRefs[std::size_t(pc)].instr;
            return st;
          case DOp::TxEnd:
            flush(StepKind::TxEnd);
            return st;
          case DOp::Barrier:
            flush(StepKind::Barrier);
            return st;
          case DOp::Annotate:
            flush(StepKind::Annotate);
            st.addr = Addr(R[o.a]);
            st.annotateLen = std::uint64_t(R[o.b]);
            return st;

          case DOp::TxSuspend:
            HINTM_ASSERT(inTx_, "suspend outside TX");
            suspended_ = true;
            ++n; ++pc;
            break;
          case DOp::TxResume:
            HINTM_ASSERT(inTx_ && suspended_, "resume without suspend");
            suspended_ = false;
            ++n; ++pc;
            break;

          case DOp::ThreadId: R[o.dst] = tid_; ++n; ++pc; break;
          case DOp::Rand: {
            const std::int64_t bound = R[o.a];
            R[o.dst] = std::int64_t(prog_.rng(tid_).below(
                bound > 0 ? std::uint64_t(bound) : 1));
            ++n; ++pc;
            break;
          }
          case DOp::Print:
            inform("thread ", tid_, ": ", R[o.a]);
            ++n; ++pc;
            break;
          case DOp::Nop: ++n; ++pc; break;
        }
        HINTM_ASSERT(n < 500000000ull, "runaway non-memory loop");
    }
}

void
ThreadInterp::execute(const Instr &ins)
{
    auto shift_amount = [&] { return unsigned(reg(ins.b)) & 63u; };
    switch (ins.op) {
      case Opcode::Const:
        setReg(ins.dst, ins.imm);
        advance();
        break;
      case Opcode::Mov:
        setReg(ins.dst, reg(ins.a));
        advance();
        break;
      case Opcode::Add:
        setReg(ins.dst, wAdd(reg(ins.a), reg(ins.b)));
        advance();
        break;
      case Opcode::Sub:
        setReg(ins.dst, wSub(reg(ins.a), reg(ins.b)));
        advance();
        break;
      case Opcode::Mul:
        setReg(ins.dst, wMul(reg(ins.a), reg(ins.b)));
        advance();
        break;
      case Opcode::Div:
        HINTM_ASSERT(reg(ins.b) != 0, "division by zero");
        setReg(ins.dst, reg(ins.a) / reg(ins.b));
        advance();
        break;
      case Opcode::Mod:
        HINTM_ASSERT(reg(ins.b) != 0, "modulo by zero");
        setReg(ins.dst, reg(ins.a) % reg(ins.b));
        advance();
        break;
      case Opcode::And:
        setReg(ins.dst, reg(ins.a) & reg(ins.b));
        advance();
        break;
      case Opcode::Or:
        setReg(ins.dst, reg(ins.a) | reg(ins.b));
        advance();
        break;
      case Opcode::Xor:
        setReg(ins.dst, reg(ins.a) ^ reg(ins.b));
        advance();
        break;
      case Opcode::Shl:
        setReg(ins.dst, wShl(reg(ins.a), shift_amount()));
        advance();
        break;
      case Opcode::Shr:
        setReg(ins.dst,
               std::int64_t(std::uint64_t(reg(ins.a)) >> shift_amount()));
        advance();
        break;
      case Opcode::CmpEq:
        setReg(ins.dst, reg(ins.a) == reg(ins.b));
        advance();
        break;
      case Opcode::CmpNe:
        setReg(ins.dst, reg(ins.a) != reg(ins.b));
        advance();
        break;
      case Opcode::CmpLt:
        setReg(ins.dst, reg(ins.a) < reg(ins.b));
        advance();
        break;
      case Opcode::CmpLe:
        setReg(ins.dst, reg(ins.a) <= reg(ins.b));
        advance();
        break;
      case Opcode::CmpGt:
        setReg(ins.dst, reg(ins.a) > reg(ins.b));
        advance();
        break;
      case Opcode::CmpGe:
        setReg(ins.dst, reg(ins.a) >= reg(ins.b));
        advance();
        break;

      case Opcode::Alloca: {
        const Addr size = (Addr(ins.imm) + 7) & ~Addr(7);
        const Addr base = stackPtr_;
        stackPtr_ += size;
        HINTM_ASSERT(stackPtr_ <
                         layout::stackBase(tid_) + layout::stackStride,
                     "stack overflow on thread ", tid_);
        setReg(ins.dst, std::int64_t(base));
        advance();
        break;
      }
      case Opcode::Malloc: {
        const std::int64_t size = reg(ins.a);
        HINTM_ASSERT(size > 0, "malloc of non-positive size");
        const Addr p =
            prog_.allocator().alloc(unsigned(tid_), std::uint64_t(size));
        if (inTx_ && htmMode_)
            txAllocs_.push_back(p);
        setReg(ins.dst, std::int64_t(p));
        advance();
        break;
      }
      case Opcode::Free: {
        const Addr p = Addr(reg(ins.a));
        if (inTx_)
            deferredFrees_.push_back(p);
        else
            prog_.allocator().release(p);
        advance();
        break;
      }
      case Opcode::Gep: {
        std::int64_t v = reg(ins.a);
        if (ins.b >= 0)
            v = wAdd(v, wMul(reg(ins.b), ins.imm));
        v = wAdd(v, ins.imm2);
        setReg(ins.dst, v);
        advance();
        break;
      }
      case Opcode::GlobalAddr:
        setReg(ins.dst, std::int64_t(prog_.globalAddr(int(ins.imm))));
        advance();
        break;

      case Opcode::Br: {
        FrameMeta &f = frames_.back();
        f.block = int(ins.imm);
        f.ip = 0;
        break;
      }
      case Opcode::CondBr: {
        const bool taken = reg(ins.a) != 0;
        FrameMeta &f = frames_.back();
        f.block = int(taken ? ins.imm : ins.imm2);
        f.ip = 0;
        break;
      }
      case Opcode::Call: {
        const Function &callee =
            prog_.module().functions[std::size_t(ins.imm)];
        HINTM_ASSERT(ins.args.size() == callee.numParams,
                     "arity mismatch calling ", callee.name);
        HINTM_ASSERT(!callee.blocks.empty(), "call of undefined function ",
                     callee.name);
        advance(); // resume after the call on return
        pushFrame(int(ins.imm), callee.numRegs, ins.dst,
                  ins.args.data(), ins.args.size());
        break;
      }
      case Opcode::Ret: {
        const std::int64_t v = ins.a >= 0 ? reg(ins.a) : 0;
        const int ret_dst = frames_.back().retDst;
        stackPtr_ = frames_.back().stackOnEntry;
        frames_.pop_back();
        if (frames_.empty()) {
            done_ = true;
        } else if (ret_dst >= 0) {
            setReg(ret_dst, v);
        }
        break;
      }

      case Opcode::ThreadId:
        setReg(ins.dst, tid_);
        advance();
        break;
      case Opcode::Rand: {
        const std::int64_t bound = reg(ins.a);
        setReg(ins.dst,
               std::int64_t(prog_.rng(tid_).below(
                   bound > 0 ? std::uint64_t(bound) : 1)));
        advance();
        break;
      }
      case Opcode::Print:
        inform("thread ", tid_, ": ", reg(ins.a));
        advance();
        break;
      case Opcode::Nop:
        advance();
        break;

      case Opcode::TxSuspend:
        HINTM_ASSERT(inTx_, "suspend outside TX");
        suspended_ = true;
        advance();
        break;
      case Opcode::TxResume:
        HINTM_ASSERT(inTx_ && suspended_, "resume without suspend");
        suspended_ = false;
        advance();
        break;

      case Opcode::Load:
      case Opcode::Store:
      case Opcode::TxBegin:
      case Opcode::TxEnd:
      case Opcode::Barrier:
      case Opcode::Annotate:
        HINTM_PANIC("boundary opcode reached execute()");
    }
}

void
ThreadInterp::completeMem()
{
    HINTM_ASSERT(memPending_, "no pending memory access");
    if (dec_)
        completeMemDec();
    else
        completeMemRef();
    memPending_ = false;
    ++instrCount_;
    advance();
}

void
ThreadInterp::completeMemRef()
{
    const Instr &ins = currentInstr();
    AddressSpace &space = prog_.space();

    if (ins.op == Opcode::Load) {
        if (prog_.validateSafeStores && !staleSafeStores_.empty() &&
            staleSafeStores_.count(pendingAddr_)) {
            HINTM_PANIC("read of stale safe-stored location ", pendingAddr_,
                        ": safe store was not initializing");
        }
        setReg(ins.dst, space.read(pendingAddr_));
    } else {
        // One page resolution for the whole store, undo-log read
        // included.
        std::int64_t *word = space.wordRef(pendingAddr_);
        // Suspended-window stores are non-transactional: no undo.
        if (inTx_ && htmMode_ && !suspended_) {
            if (ins.safe) {
                if (prog_.validateSafeStores)
                    safeStoreAddrs_.insert(pendingAddr_);
            } else {
                undoLog_.emplace_back(pendingAddr_, *word);
            }
        }
        if (prog_.validateSafeStores && !staleSafeStores_.empty())
            staleSafeStores_.erase(pendingAddr_);
        *word = reg(ins.b);
    }
}

void
ThreadInterp::completeMemDec()
{
    const DecodedOp &o = *pendingDOp_;
    AddressSpace &space = prog_.space();
    std::int64_t *R = pendingRegs_;

    if (o.op == DOp::Load || o.op == DOp::GepLoad) {
        if (prog_.validateSafeStores && !staleSafeStores_.empty() &&
            staleSafeStores_.count(pendingAddr_)) {
            HINTM_PANIC("read of stale safe-stored location ", pendingAddr_,
                        ": safe store was not initializing");
        }
        R[o.dst] = space.read(pendingAddr_);
    } else {
        std::int64_t *word = space.wordRef(pendingAddr_);
        if (inTx_ && htmMode_ && !suspended_) {
            if (o.safe) {
                if (prog_.validateSafeStores)
                    safeStoreAddrs_.insert(pendingAddr_);
            } else {
                undoLog_.emplace_back(pendingAddr_, *word);
            }
        }
        if (prog_.validateSafeStores && !staleSafeStores_.empty())
            staleSafeStores_.erase(pendingAddr_);
        // Plain Store keeps the value in `b`; GepStore moved it to `dst`.
        *word = R[o.op == DOp::Store ? o.b : o.dst];
    }
}

void
ThreadInterp::enterTx(bool htm_mode)
{
    HINTM_ASSERT(atBoundary(Opcode::TxBegin, DOp::TxBegin),
                 "not at TxBegin");
    HINTM_ASSERT(!inTx_, "nested transaction");
    inTx_ = true;
    htmMode_ = htm_mode;
    if (htm_mode) {
        // Bounded flat copies: frame metadata plus the live register
        // prefix. assign() reuses the checkpoint's capacity across TXs.
        checkpoint_.frames.assign(frames_.begin(), frames_.end());
        const FrameMeta &top = frames_.back();
        const std::size_t live = top.regBase + top.numRegs;
        checkpoint_.regs.assign(regs_.begin(),
                                regs_.begin() + std::ptrdiff_t(live));
        checkpoint_.stackPtr = stackPtr_;
    }
    ++instrCount_;
    advance();
}

void
ThreadInterp::completeTxEnd()
{
    HINTM_ASSERT(atBoundary(Opcode::TxEnd, DOp::TxEnd), "not at TxEnd");
    HINTM_ASSERT(inTx_, "TxEnd outside transaction");
    for (const Addr p : deferredFrees_)
        prog_.allocator().release(p);
    deferredFrees_.clear();
    txAllocs_.clear();
    undoLog_.clear();
    safeStoreAddrs_.clear();
    inTx_ = false;
    htmMode_ = false;
    suspended_ = false;
    ++instrCount_;
    advance();
}

void
ThreadInterp::convertToFallback()
{
    HINTM_ASSERT(inTx_ && htmMode_, "conversion outside hardware TX");
    HINTM_ASSERT(!suspended_, "conversion inside escape window");
    htmMode_ = false;
    undoLog_.clear();
    txAllocs_.clear();
    safeStoreAddrs_.clear();
}

void
ThreadInterp::passBarrier()
{
    HINTM_ASSERT(atBoundary(Opcode::Barrier, DOp::Barrier),
                 "not at Barrier");
    ++instrCount_;
    advance();
}

void
ThreadInterp::passAnnotate()
{
    HINTM_ASSERT(atBoundary(Opcode::Annotate, DOp::Annotate),
                 "not at Annotate");
    ++instrCount_;
    advance();
}

void
ThreadInterp::undoStores()
{
    for (auto it = undoLog_.rbegin(); it != undoLog_.rend(); ++it)
        prog_.space().write(it->first, it->second);
    undoLog_.clear();
}

void
ThreadInterp::rollbackToTxBegin()
{
    HINTM_ASSERT(inTx_ && htmMode_, "rollback outside hardware TX");
    HINTM_ASSERT(undoLog_.empty(),
                 "rollback before the undo hook ran");
    // Restore the live arena prefix; the tail above it is dead (a later
    // Call zero-fills its window before use).
    frames_.assign(checkpoint_.frames.begin(), checkpoint_.frames.end());
    std::copy(checkpoint_.regs.begin(), checkpoint_.regs.end(),
              regs_.begin());
    stackPtr_ = checkpoint_.stackPtr;
    for (const Addr p : txAllocs_)
        prog_.allocator().release(p);
    txAllocs_.clear();
    deferredFrees_.clear();
    if (prog_.validateSafeStores) {
        staleSafeStores_.insert(safeStoreAddrs_.begin(),
                                safeStoreAddrs_.end());
        safeStoreAddrs_.clear();
    }
    memPending_ = false;
    inTx_ = false;
    htmMode_ = false;
    suspended_ = false;
}

} // namespace tir
} // namespace hintm
