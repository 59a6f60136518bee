/**
 * @file
 * exo2lint — the static schedule-safety analyzer CLI (DESIGN.md §9).
 *
 *   exo2lint [--json] [--script FILE|-] [--quiet] <kernel>
 *   exo2lint [--json] --all
 *   exo2lint --list-rules
 *
 * <kernel> is a registry name (saxpy, dgemv_n, ...) or one of the demo
 * kernels (sgemm, blur, unsharp). --script replays a recorded schedule
 * script (the autotuner's `op[n,...;s,...]` line format, `-` = stdin)
 * onto the kernel before linting, so a tuned candidate can be vetted
 * exactly as the tuner's pre-JIT gate does. --all lints every registry
 * kernel plus the demo kernels (the soundness sweep's first half).
 *
 * Exit codes: 0 = no Error-level findings, 1 = at least one Error,
 * 2 = usage / unknown kernel / script replay failure.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/lint/lint.h"
#include "src/tune/tune.h"
#include "src/verify/fuzz.h"

namespace {

using namespace exo2;

std::vector<verify::FuzzStep>
load_script(const std::string& path)
{
    std::string text;
    if (path == "-") {
        std::stringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
    } else {
        std::ifstream in(path);
        if (!in) {
            std::cerr << "exo2lint: cannot read script '" << path << "'\n";
            std::exit(2);
        }
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    return verify::script_from_string(text);
}

void
list_rules()
{
    std::cout <<
        "EXL001 warn  bounds: access not provably in-bounds\n"
        "EXL002 error bounds: access provably out-of-bounds (reachable)\n"
        "EXL003 warn  bounds: access with unknown or mismatched shape\n"
        "EXL004 warn  bounds: allocation extent not provably nonnegative\n"
        "EXL101 warn  init: read of a never-written allocation\n"
        "EXL201 error race: parallel loop carries a cross-iteration "
        "conflict\n"
        "EXL202 info  race: nested parallel loops\n"
        "EXL301 info  hygiene: allocation never used\n"
        "EXL302 info  hygiene: allocation written but never read\n"
        "EXL303 info  hygiene: provably zero-trip loop\n"
        "EXL304 info  hygiene: provably single-trip loop\n"
        "EXL305 info  hygiene: masked vector op without a predicated "
        "ALU\n";
}

int
lint_one(const std::string& name, const ProcPtr& p, bool json, bool quiet)
{
    lint::LintReport rep = lint::lint_proc(p);
    if (json) {
        std::cout << rep.to_json() << "\n";
    } else {
        std::string text = rep.to_text();
        if (!text.empty())
            std::cout << text;
        if (!quiet) {
            std::cout << name << ": " << rep.count(lint::Severity::Error)
                      << " error(s), " << rep.count(lint::Severity::Warn)
                      << " warning(s), " << rep.count(lint::Severity::Info)
                      << " info(s); " << rep.proven << "/"
                      << rep.obligations << " bounds obligations proven"
                      << (rep.proven_safe() ? "; proven safe" : "")
                      << "\n";
        }
    }
    return rep.has_errors() ? 1 : 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json = false;
    bool all = false;
    bool quiet = false;
    std::string script_path;
    std::string kernel;

    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto need = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "exo2lint: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--json") {
            json = true;
        } else if (a == "--all") {
            all = true;
        } else if (a == "--quiet") {
            quiet = true;
        } else if (a == "--script") {
            script_path = need("--script");
        } else if (a == "--list-rules") {
            list_rules();
            return 0;
        } else if (a == "--help" || a == "-h") {
            std::cerr << "usage: exo2lint [--json] [--quiet] "
                         "[--script FILE|-] <kernel>\n"
                         "       exo2lint [--json] --all\n"
                         "       exo2lint --list-rules\n";
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "exo2lint: unknown flag '" << a << "'\n";
            return 2;
        } else {
            kernel = a;
        }
    }

    if (all) {
        int worst = 0;
        auto run = [&](const std::string& name, const ProcPtr& p) {
            int rc = lint_one(name, p, json, quiet);
            if (rc > worst)
                worst = rc;
        };
        for (const auto& k : kernels::blas_level1())
            run(k.name, k.proc);
        for (const auto& k : kernels::blas_level2())
            run(k.name, k.proc);
        run("sgemm", kernels::sgemm());
        run("blur", kernels::blur());
        run("unsharp", kernels::unsharp());
        return worst;
    }

    if (kernel.empty()) {
        std::cerr << "exo2lint: no kernel given (try --help)\n";
        return 2;
    }

    ProcPtr p;
    try {
        p = kernels::resolve_kernel(kernel);
    } catch (const std::exception& e) {
        std::cerr << "exo2lint: unknown kernel '" << kernel << "': "
                  << e.what() << "\n";
        return 2;
    }

    if (!script_path.empty()) {
        try {
            auto script = load_script(script_path);
            p = tune::replay_script(p, script);
        } catch (const std::exception& e) {
            std::cerr << "exo2lint: script replay failed: " << e.what()
                      << "\n";
            return 2;
        }
    }

    return lint_one(kernel, p, json, quiet);
}
