// kfi_cli — a command-line front end over the whole library, the tool a
// downstream user drives experiments with.
//
//   kfi_cli workloads
//   kfi_cli functions [subsystem]
//   kfi_cli disasm <function>
//   kfi_cli profile [top-n]
//   kfi_cli inject <function> <instr-index> <byte> <bit> [workload]
//   kfi_cli forensics <function> <instr-index> <byte> <bit> [workload]
//   kfi_cli campaign <A|B|C|D|E|F> [function ...]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/io.h"
#include "analysis/render.h"
#include "analysis/report.h"
#include "inject/campaign.h"
#include "inject/targets.h"
#include "machine/kdb.h"
#include "profile/profile.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace {

using namespace kfi;

// Strict numeric argument parsing: atoi's 0-on-garbage return made
// "kfi_cli inject fn x y z" look like a valid bit-0 injection.
bool parse_arg(const char* text, const char* what, std::uint64_t max_value,
               std::uint64_t& out) {
  if (!parse_u64(text, out, 0, max_value)) {
    std::printf("invalid %s '%s' (expected 0..%llu)\n", what, text,
                static_cast<unsigned long long>(max_value));
    return false;
  }
  return true;
}

int usage() {
  std::printf(
      "usage: kfi_cli <command> [args]\n"
      "  workloads                 list the benchmark workloads\n"
      "  functions [subsystem]     list kernel functions (optionally one\n"
      "                            subsystem: arch fs kernel mm drivers\n"
      "                            lib ipc net)\n"
      "  disasm <function>         disassemble a kernel function\n"
      "  profile [top-n]           kernprof-style profile (default 15)\n"
      "  inject <fn> <i> <byte> <bit> [workload]\n"
      "                            flip one bit in instruction #i of fn\n"
      "  forensics <fn> <i> <byte> <bit> [workload]\n"
      "                            replay one injection under the event\n"
      "                            trace: timeline + JSONL next to the\n"
      "                            campaign artifacts\n"
      "  campaign <A|B|C|D|E|F> [fn...]\n"
      "                            run a campaign (default: paper's\n"
      "                            function selection; D/E/F are the\n"
      "                            fault-model campaigns)\n"
      "  report [out.md]           run/load all campaigns and write a\n"
      "                            markdown report\n");
  return 2;
}

int cmd_workloads() {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    std::printf("%-10s exercises: %s\n", w.name.c_str(), w.exercises.c_str());
  }
  return 0;
}

int cmd_functions(int argc, char** argv) {
  const std::string filter = argc > 2 ? argv[2] : "";
  for (const kernel::KernelFunction& fn : kernel::built_kernel().functions) {
    const std::string subsystem(kernel::subsystem_name(fn.subsystem));
    if (!filter.empty() && subsystem != filter) continue;
    std::printf("%-8s %s..%s  %s\n", subsystem.c_str(),
                hex32(fn.start).c_str(), hex32(fn.end).c_str(),
                fn.name.c_str());
  }
  return 0;
}

int cmd_disasm(int argc, char** argv) {
  if (argc < 3) return usage();
  const disk::DiskImage root_disk = machine::make_root_disk();
  machine::Machine machine(kernel::built_kernel(),
                           workloads::built_workload("syscall"), root_disk);
  if (!machine.boot()) return 1;
  machine::Kdb kdb(machine);
  std::fputs(kdb.disassemble_function(argv[2]).c_str(), stdout);
  return 0;
}

int cmd_profile(int argc, char** argv) {
  std::uint64_t top = 15;
  if (argc > 2 && !parse_arg(argv[2], "top-n", 1000, top)) return 1;
  const profile::ProfileResult& prof = profile::default_profile();
  std::fputs(analysis::render_table1(prof, 0.95).c_str(), stdout);
  std::printf("\n");
  std::uint64_t rank = 1;
  for (const profile::FunctionSamples& fs : prof.functions) {
    if (rank > top) break;
    std::printf("%3llu. %-26s %-8s %8s samples\n",
                static_cast<unsigned long long>(rank++),
                fs.function.c_str(),
                std::string(kernel::subsystem_name(fs.subsystem)).c_str(),
                with_commas(fs.samples).c_str());
  }
  return 0;
}

// Shared by `inject` and `forensics`: argv[2..5] -> a validated spec.
// Returns false after printing a diagnostic.
bool parse_spec(int argc, char** argv, inject::InjectionSpec& spec) {
  const kernel::KernelImage& image = kernel::built_kernel();
  const kernel::KernelFunction* fn = image.function(argv[2]);
  if (fn == nullptr) {
    std::printf("unknown function '%s'\n", argv[2]);
    return false;
  }
  const auto sites = inject::enumerate_function(image, *fn);
  if (sites.empty()) {
    std::printf("function '%s' has no enumerable instructions\n",
                fn->name.c_str());
    return false;
  }
  std::uint64_t index = 0;
  std::uint64_t byte_index = 0;
  std::uint64_t bit_index = 0;
  if (!parse_arg(argv[3], "instruction index", sites.size() - 1, index) ||
      !parse_arg(argv[4], "byte index", 15, byte_index) ||
      !parse_arg(argv[5], "bit index", 7, bit_index)) {
    return false;
  }
  spec.function = fn->name;
  spec.subsystem = fn->subsystem;
  spec.instr_addr = sites[index].addr;
  spec.instr_len = static_cast<std::uint8_t>(sites[index].bytes.size());
  spec.byte_index = static_cast<std::uint8_t>(byte_index);
  spec.bit_index = static_cast<std::uint8_t>(bit_index);
  if (spec.byte_index >= spec.instr_len) {
    std::printf("byte index out of range (instruction is %u bytes)\n",
                spec.instr_len);
    return false;
  }
  spec.workload = argc > 6 ? argv[6]
                           : profile::default_profile().best_workload(
                                 fn->name);
  if (spec.workload.empty()) spec.workload = "syscall";
  return true;
}

void print_result(const inject::InjectionSpec& spec,
                  const inject::InjectionResult& result) {
  std::printf("target   : %s @%s (%s), workload %s\n", spec.function.c_str(),
              hex32(spec.instr_addr).c_str(),
              std::string(kernel::subsystem_name(spec.subsystem)).c_str(),
              spec.workload.c_str());
  std::printf("before   : %s\n", result.disasm_before.c_str());
  std::printf("after    : %s\n", result.disasm_after.c_str());
  std::printf("outcome  : %s\n",
              std::string(inject::outcome_name(result.outcome)).c_str());
  if (result.outcome == inject::Outcome::DumpedCrash) {
    std::printf("cause    : %s\n",
                std::string(inject::crash_cause_name(result.cause)).c_str());
    std::printf("crash in : %s (eip %s), latency %s cycles%s\n",
                std::string(kernel::subsystem_name(result.crash_subsystem))
                    .c_str(),
                hex32(result.crash_eip).c_str(),
                with_commas(result.latency_cycles).c_str(),
                result.propagated ? " [propagated]" : "");
    std::printf("severity : %s\n",
                std::string(inject::severity_name(result.severity)).c_str());
  }
}

int cmd_inject(int argc, char** argv) {
  if (argc < 6) return usage();
  inject::InjectionSpec spec;
  if (!parse_spec(argc, argv, spec)) return 1;
  inject::Injector injector;
  const inject::InjectionResult result = injector.run_one(spec);
  print_result(spec, result);
  return 0;
}

int cmd_forensics(int argc, char** argv) {
  if (argc < 6) return usage();
  inject::InjectionSpec spec;
  if (!parse_spec(argc, argv, spec)) return 1;

  inject::InjectorOptions options;
  options.trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  inject::Injector injector(options);
  const inject::InjectionResult result = injector.run_one(spec);
  print_result(spec, result);

  const kernel::KernelImage& image = kernel::built_kernel();
  const trace::SymbolResolver resolve = [&image](std::uint32_t addr) {
    const kernel::KernelFunction* at = image.function_at(addr);
    if (at == nullptr) return std::string();
    return format("%s+0x%x (%s)", at->name.c_str(), addr - at->start,
                  std::string(kernel::subsystem_name(at->subsystem)).c_str());
  };
  const std::vector<trace::Event> events = injector.trace()->events();
  std::printf("\n-- forensics timeline (%zu events, %llu recorded, "
              "%llu dropped) --\n",
              events.size(),
              static_cast<unsigned long long>(
                  injector.trace()->total_recorded()),
              static_cast<unsigned long long>(
                  injector.trace()->total_dropped()));
  std::fputs(trace::render_timeline(events, resolve).c_str(), stdout);

  std::error_code ec;
  std::filesystem::create_directories("kfi-results", ec);
  // argv[3] is the already-validated instruction index.
  const std::string path =
      format("kfi-results/forensics_%s_%s_%u_%u.jsonl", spec.function.c_str(),
             argv[3], spec.byte_index, spec.bit_index);
  if (!trace::write_jsonl(events, path, resolve)) {
    std::printf("cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events)\n", path.c_str(), events.size());
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  inject::CampaignConfig config;
  switch (argv[2][0]) {
    case 'A': config.campaign = inject::Campaign::RandomNonBranch; break;
    case 'B': config.campaign = inject::Campaign::RandomBranch; break;
    case 'C': config.campaign = inject::Campaign::IncorrectBranch; break;
    case 'D': config.campaign = inject::Campaign::RegisterFile; break;
    case 'E': config.campaign = inject::Campaign::KernelData; break;
    case 'F': config.campaign = inject::Campaign::SyscallErrno; break;
    default: return usage();
  }
  for (int i = 3; i < argc; ++i) config.functions.emplace_back(argv[i]);
  config.progress = [](std::size_t done, std::size_t total) {
    if (done % 200 == 0 || done == total) {
      std::fprintf(stderr, "\r%zu/%zu", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    }
  };
  inject::Injector injector;
  const inject::CampaignRun run =
      inject::run_campaign(injector, profile::default_profile(), config);
  std::fputs(analysis::render_outcome_table(analysis::make_outcome_table(run))
                 .c_str(),
             stdout);
  std::printf("\n");
  std::fputs(
      analysis::render_crash_causes(analysis::make_crash_causes(run)).c_str(),
      stdout);
  if (config.campaign == inject::Campaign::SyscallErrno) {
    std::printf("\n");
    std::fputs(analysis::render_cascade(analysis::make_cascade(run)).c_str(),
               stdout);
  }
  return 0;
}

int cmd_report(int argc, char** argv) {
  const char* path = argc > 2 ? argv[2] : "kfi-results/report.md";
  inject::Injector injector;
  analysis::BenchOptions options;
  const inject::CampaignRun a = analysis::bench_campaign(
      injector, inject::Campaign::RandomNonBranch, options);
  const inject::CampaignRun b = analysis::bench_campaign(
      injector, inject::Campaign::RandomBranch, options);
  const inject::CampaignRun c = analysis::bench_campaign(
      injector, inject::Campaign::IncorrectBranch, options);
  analysis::ReportInputs inputs;
  inputs.profile = &profile::default_profile();
  inputs.campaigns = {&a, &b, &c};
  inputs.title = "kfi campaign report (DSN'03 reproduction)";
  const std::string md = analysis::render_markdown_report(inputs);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot open %s\n", path);
    return 1;
  }
  std::fputs(md.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path, md.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  machine::default_exec_engine();  // a bad KFI_EXEC exits 2 up front
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "workloads") return cmd_workloads();
  if (command == "functions") return cmd_functions(argc, argv);
  if (command == "disasm") return cmd_disasm(argc, argv);
  if (command == "profile") return cmd_profile(argc, argv);
  if (command == "inject") return cmd_inject(argc, argv);
  if (command == "forensics") return cmd_forensics(argc, argv);
  if (command == "campaign") return cmd_campaign(argc, argv);
  if (command == "report") return cmd_report(argc, argv);
  return usage();
}
