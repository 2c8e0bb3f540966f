# Included from the top-level CMakeLists so that build/bench/ contains
# exactly the bench executables (no CMake clutter), letting
# `for b in build/bench/*; do $b; done` run the whole suite.

add_library(bench_support STATIC ${CMAKE_SOURCE_DIR}/bench/support.cpp)
target_link_libraries(bench_support PUBLIC cwsp::bencharness cwsp::core)
target_include_directories(bench_support PUBLIC ${CMAKE_SOURCE_DIR}/bench)

function(cwsp_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

cwsp_add_bench(bench_table1 bench_support)
cwsp_add_bench(bench_table2 bench_support)
cwsp_add_bench(bench_table3 bench_support)
cwsp_add_bench(bench_table4 bench_support cwsp::baselines)
cwsp_add_bench(bench_fig6 cwsp::spice)
cwsp_add_bench(bench_coverage cwsp::bencharness cwsp::campaign)
cwsp_add_bench(bench_timing cwsp::core)
cwsp_add_bench(bench_baselines cwsp::baselines cwsp::bencharness)
cwsp_add_bench(bench_perf cwsp::analysis cwsp::baselines cwsp::bencharness cwsp::campaign cwsp::service cwsp::sim benchmark::benchmark)
cwsp_add_bench(bench_ser cwsp::set cwsp::core cwsp::bencharness)
cwsp_add_bench(bench_ablation cwsp::baselines cwsp::bencharness cwsp::campaign cwsp::spice)
cwsp_add_bench(bench_scaling cwsp::set)
cwsp_add_bench(bench_tuning cwsp::set cwsp::bencharness cwsp::core)
cwsp_add_bench(bench_campaign cwsp::campaign cwsp::bencharness cwsp::sim)
cwsp_add_bench(bench_spice cwsp::characterize cwsp::spice)
cwsp_add_bench(bench_service cwsp::service cwsp::bencharness)
