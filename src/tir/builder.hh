/**
 * @file
 * Fluent construction API for TxIR, in the spirit of LLVM's IRBuilder.
 * Provides structured control-flow helpers (ifThen / whileLoop / forRange
 * taking lambdas) so workload kernels stay readable.
 */

#ifndef HINTM_TIR_BUILDER_HH
#define HINTM_TIR_BUILDER_HH

#include <functional>
#include <string>
#include <vector>

#include "tir/ir.hh"

namespace hintm
{
namespace tir
{

/** Virtual register handle. */
using Reg = int;

/** Builds one function inside a module. */
class FunctionBuilder
{
  public:
    /**
     * Start a new function. The function is appended to @p mod when
     * finish() is called (allowing recursive call-by-name resolution
     * through pre-declared stubs).
     */
    FunctionBuilder(Module &mod, std::string name, unsigned num_params);

    /** Finalize: append the function to the module. @return its index. */
    int finish();

    // --- values -----------------------------------------------------
    Reg param(unsigned i);
    Reg constI(std::int64_t v);
    Reg freshVar();
    void set(Reg var, Reg value);
    void setI(Reg var, std::int64_t value);

    Reg add(Reg a, Reg b);
    Reg addI(Reg a, std::int64_t i);
    Reg sub(Reg a, Reg b);
    Reg subI(Reg a, std::int64_t i);
    Reg mul(Reg a, Reg b);
    Reg mulI(Reg a, std::int64_t i);
    Reg div(Reg a, Reg b);
    Reg mod(Reg a, Reg b);
    Reg modI(Reg a, std::int64_t i);
    Reg andOp(Reg a, Reg b);
    Reg xorOp(Reg a, Reg b);
    Reg shl(Reg a, Reg b);
    Reg shlI(Reg a, std::int64_t i);
    Reg shrI(Reg a, std::int64_t i);
    Reg cmpEq(Reg a, Reg b);
    Reg cmpNe(Reg a, Reg b);
    Reg cmpLt(Reg a, Reg b);
    Reg cmpLtI(Reg a, std::int64_t i);
    Reg cmpGe(Reg a, Reg b);
    Reg cmpEqI(Reg a, std::int64_t i);
    Reg cmpNeI(Reg a, std::int64_t i);

    // --- memory -----------------------------------------------------
    Reg allocaBytes(std::uint64_t bytes);
    Reg mallocBytes(Reg size);
    Reg mallocI(std::uint64_t bytes);
    void freePtr(Reg p);
    Reg load(Reg addr, std::int64_t off = 0);
    void store(Reg addr, Reg val, std::int64_t off = 0);
    void storeI(Reg addr, std::int64_t val, std::int64_t off = 0);
    /** dst = base + idx*scale + off. Pass idx = -1 for a constant offset. */
    Reg gep(Reg base, Reg idx, std::int64_t scale, std::int64_t off = 0);
    Reg globalAddr(const std::string &name);

    // --- calls / control -------------------------------------------
    Reg call(const std::string &fn, std::vector<Reg> args);
    void callVoid(const std::string &fn, std::vector<Reg> args);
    void ret(Reg v = -1);
    void retVoid() { ret(-1); }

    void txBegin();
    void txEnd();
    /** Escape action: accesses until txResume() are neither tracked nor
     * versioned — they survive an abort (Intel/IBM suspend-resume). */
    void txSuspend();
    void txResume();
    /** Notary-style coarse annotation: declare the pages covering
     * [addr, addr+len) thread-private/safe. Unchecked: the programmer
     * vouches that no other thread races on them. */
    void annotateSafe(Reg addr, Reg len);
    Reg threadId();
    Reg rand(Reg bound);
    Reg randI(std::int64_t bound);
    void barrier();
    void print(Reg v);

    // --- structured control flow ------------------------------------
    /** if (cond != 0) thenFn(); */
    void ifThen(Reg cond, const std::function<void()> &then_fn);
    /** if (cond != 0) thenFn(); else elseFn(); */
    void ifThenElse(Reg cond, const std::function<void()> &then_fn,
                    const std::function<void()> &else_fn);
    /**
     * while (true) { c = condFn(); if (!c) break; bodyFn(); }
     * condFn runs at the loop head and returns the continuation register.
     */
    void whileLoop(const std::function<Reg()> &cond_fn,
                   const std::function<void()> &body_fn);
    /** for (i = lo; i < hi; ++i) bodyFn(i); — lo/hi evaluated once. */
    void forRange(Reg lo, Reg hi, const std::function<void(Reg)> &body_fn);
    void forRangeI(std::int64_t lo, std::int64_t hi,
                   const std::function<void(Reg)> &body_fn);

    // --- raw block access (for irregular control flow) ---------------
    int newBlock();
    void setBlock(int b);
    void br(int target);
    void condBr(Reg cond, int if_true, int if_false);

    Module &module() { return mod_; }

  private:
    Reg newReg();
    Instr &emit(Instr ins);
    Reg emitBin(Opcode op, Reg a, Reg b);

    Module &mod_;
    Function fn_;
    int cur_ = 0;
    bool finished_ = false;
};

/**
 * Pre-declare a function name so mutually recursive call-by-name works;
 * the stub must be replaced by building a function of the same name
 * before the module is verified.
 */
int declareFunction(Module &mod, const std::string &name,
                    unsigned num_params);

} // namespace tir
} // namespace hintm

#endif // HINTM_TIR_BUILDER_HH
