# One binary per table/figure of the paper, plus measured microbenchmarks.
# Every binary runs argument-free and prints the rows/series the paper
# reports (see EXPERIMENTS.md for the paper-vs-measured record).
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench holds ONLY the bench executables — the
# documented reproduction command is a glob over that directory.
function(turbo_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(${name} PRIVATE turbo::turbo)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

turbo_add_bench(bench_fig1_latency_profile)
turbo_add_bench(bench_fig4_qkv_distribution)
turbo_add_bench(bench_fig5_sas_fit)
turbo_add_bench(bench_fig6_speedup)
turbo_add_bench(bench_fig7a_throughput)
turbo_add_bench(bench_fig7b_head_selection)
turbo_add_bench(bench_fig8_9_value_gaps)
turbo_add_bench(bench_fig10_quant_error)
turbo_add_bench(bench_table2_accuracy)
turbo_add_bench(bench_table3_blocksize)
turbo_add_bench(bench_table4_ablation)
turbo_add_bench(bench_table5_integration)
turbo_add_bench(bench_ablation_design)
turbo_add_bench(bench_serving)
turbo_add_bench(bench_whatif_hardware)
turbo_add_bench(bench_ablation_depth)

# Measured CPU-kernel microbenchmarks (google-benchmark).
add_executable(bench_kernels ${CMAKE_SOURCE_DIR}/bench/bench_kernels.cpp)
target_include_directories(bench_kernels PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(bench_kernels PRIVATE turbo::turbo
  benchmark::benchmark benchmark::benchmark_main)
set_target_properties(bench_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
# glibc's vector math library, for BM_ExpLibmvec: linked into
# bench_kernels only, and only where CMake finds it.
find_library(TURBO_LIBMVEC mvec)
if(TURBO_LIBMVEC)
  target_link_libraries(bench_kernels PRIVATE ${TURBO_LIBMVEC})
  target_compile_definitions(bench_kernels PRIVATE TURBO_HAVE_LIBMVEC)
endif()
