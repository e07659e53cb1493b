// lfpbench: the repository's benchmark driver. One invocation runs one
// workload from a seed and prints every metric by name and unit, ending
// with one JSON result line. perfbench/run.py builds this binary and
// lfp_serve from source and invokes it; see perfbench/README.md.
//
//   lfpbench --workload <census-spill|path-census|serve-mixed> --seed N
//            --seconds S --trace 0|1 --work-dir DIR --serve-bin PATH
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using namespace lfpbench;

int usage() {
    std::cerr << "usage: lfpbench --workload <census-spill|path-census|serve-mixed> --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --serve-bin PATH\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (argc % 2 == 0) return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else if (flag == "--serve-bin") {
            args.serve_binary = value;
        } else {
            return usage();
        }
    }
    if (args.workload.empty() || args.work_dir.empty() || !(args.seconds > 0)) return usage();

    Report report;
    Tracer tracer(args.trace);
    try {
        int status = 0;
        if (args.workload == "census-spill") {
            status = run_census_spill(args, report, tracer);
        } else if (args.workload == "path-census") {
            status = run_path_census(args, report, tracer);
        } else if (args.workload == "serve-mixed") {
            status = run_serve_mixed(args, report, tracer);
        } else {
            return usage();
        }
        if (status != 0) return status;
    } catch (const std::exception& error) {
        std::cerr << "lfpbench: " << args.workload << " aborted: " << error.what() << '\n';
        return 3;
    }

    if (args.trace) {
        const std::string spans =
            args.work_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
        tracer.write(spans);
        std::cout << "spans written to " << spans << '\n';
    }
    report.print();
    return report.correct() ? 0 : 1;
}
